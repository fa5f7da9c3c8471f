package wire

import (
	"errors"
	"testing"
	"time"

	"aitf/internal/flow"
)

const gatewayJSON = `{
  "role":   "gateway",
  "addr":   "10.0.0.1",
  "name":   "v_gw",
  "listen": "127.0.0.1:0",
  "book":   {"10.0.0.2": "127.0.0.1:7002", "10.9.0.1": "127.0.0.1:7003"},
  "routes": {"10.0.0.2": "10.0.0.2", "10.9.0.1": "10.9.0.1", "10.9.0.2": "10.9.0.1"},
  "gateway": {
    "clients": ["10.0.0.2"],
    "secret":  "vgw-secret",
    "t_ms":    5000,
    "ttmp_ms": 500
  }
}`

const hostJSON = `{
  "role":   "host",
  "addr":   "10.0.0.2",
  "name":   "victim",
  "listen": "127.0.0.1:0",
  "book":   {"10.0.0.1": "127.0.0.1:7001"},
  "routes": {"10.0.0.1": "10.0.0.1"},
  "host":   {"gateway": "10.0.0.1", "detect_bps": 20000, "compliant": true}
}`

func TestParseGatewayConfig(t *testing.T) {
	cfg, err := ParseFileConfig([]byte(gatewayJSON))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Role != "gateway" || cfg.Name != "v_gw" {
		t.Fatalf("parsed %+v", cfg)
	}
	gcfg, err := cfg.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if gcfg.Timers.T != 5*time.Second || gcfg.Timers.Ttmp != 500*time.Millisecond {
		t.Fatalf("timers = %+v", gcfg.Timers)
	}
	client := flow.MakeAddr(10, 0, 0, 2)
	if _, ok := gcfg.Clients[client]; !ok {
		t.Fatal("client contract missing")
	}
	if string(gcfg.Secret) != "vgw-secret" {
		t.Fatal("secret not propagated")
	}
	if gcfg.Node.NextHop[flow.MakeAddr(10, 9, 0, 2)] != flow.MakeAddr(10, 9, 0, 1) {
		t.Fatal("multi-hop route not parsed")
	}
	if gcfg.Allocation != nil {
		t.Fatal("config without collateral_alloc grew an allocation policy")
	}
	// A fixed /24 fallback is the one-rung allocation policy.
	withAgg, err := ParseFileConfig([]byte(
		`{"role":"gateway","addr":"1.1.1.1","gateway":{"collateral_alloc":true,"alloc_prefix_lens":[24]}}`))
	if err != nil {
		t.Fatal(err)
	}
	agcfg, err := withAgg.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if agcfg.Allocation == nil {
		t.Fatal("collateral_alloc did not materialise an allocation policy")
	}
	if lens := agcfg.Allocation.Lens(); len(lens) != 1 || lens[0] != 24 {
		t.Fatalf("one-rung alloc_prefix_lens not propagated: %v", lens)
	}
	// The collateral-aware allocator knobs round-trip too: bare
	// collateral_alloc yields the default ladder, alloc_prefix_lens
	// names an explicit one.
	withAlloc, err := ParseFileConfig([]byte(
		`{"role":"gateway","addr":"1.1.1.1","gateway":{"collateral_alloc":true,"alloc_prefix_lens":[28,26,24]}}`))
	if err != nil {
		t.Fatal(err)
	}
	alcfg, err := withAlloc.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if alcfg.Allocation == nil {
		t.Fatal("collateral_alloc did not materialise an allocation policy")
	}
	if lens := alcfg.Allocation.Lens(); len(lens) != 3 || lens[0] != 28 || lens[2] != 24 {
		t.Fatalf("alloc_prefix_lens not propagated: %v", lens)
	}
	bareAlloc, err := ParseFileConfig([]byte(
		`{"role":"gateway","addr":"1.1.1.1","gateway":{"collateral_alloc":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	bacfg, err := bareAlloc.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bacfg.Allocation == nil || len(bacfg.Allocation.Lens()) == 0 {
		t.Fatalf("bare collateral_alloc should enable the default ladder, got %+v", bacfg.Allocation)
	}
	// And the config actually boots a gateway.
	g, err := NewGateway(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()

	// Gateway-side detection knobs round-trip into the detect config.
	withDet, err := ParseFileConfig([]byte(
		`{"role":"gateway","addr":"1.1.1.1","gateway":{
			"detect_bps":30000,"detect_for":["10.0.0.2","10.0.0.3"],
			"detect_window_ms":200,"sketch_width":2048,"sketch_depth":5,"detect_topk":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	dcfg, err := withDet.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if dcfg.Detect.ThresholdBps != 30000 || dcfg.Detect.Window != 200*time.Millisecond ||
		dcfg.Detect.Width != 2048 || dcfg.Detect.Depth != 5 || dcfg.Detect.TopK != 64 {
		t.Fatalf("detect config = %+v", dcfg.Detect)
	}
	if len(dcfg.DetectFor) != 2 || dcfg.DetectFor[0] != flow.MakeAddr(10, 0, 0, 2) {
		t.Fatalf("detect_for = %v", dcfg.DetectFor)
	}
	dg, err := NewGateway(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Detector() == nil {
		t.Fatal("detection-configured gateway has no engine")
	}
	dg.Close()

	// Cluster knobs round-trip; an unset hash seed derives from the
	// node address so two gateways never share slice assignments.
	withClu, err := ParseFileConfig([]byte(
		`{"role":"gateway","addr":"1.1.1.1","gateway":{
			"cluster_peers":3,"cluster_merge_ms":500,"cluster_replication":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := withClu.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ccfg.Cluster.Enabled() || ccfg.Cluster.Replicas != 3 ||
		ccfg.Cluster.MergeEvery != 500*time.Millisecond || !ccfg.Cluster.Replicate {
		t.Fatalf("cluster config = %+v", ccfg.Cluster)
	}
	if ccfg.Cluster.HashSeed != uint64(flow.MakeAddr(1, 1, 1, 1)) {
		t.Fatalf("default hash seed not derived from the node address: %d", ccfg.Cluster.HashSeed)
	}
	withSeed, err := ParseFileConfig([]byte(
		`{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":2,"cluster_hash_seed":99}}`))
	if err != nil {
		t.Fatal(err)
	}
	scfg, err := withSeed.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if scfg.Cluster.HashSeed != 99 {
		t.Fatalf("explicit cluster_hash_seed not propagated: %d", scfg.Cluster.HashSeed)
	}
	// A merge interval matching a custom detection window is accepted
	// right at the boundary.
	if _, err := ParseFileConfig([]byte(
		`{"role":"gateway","addr":"1.1.1.1","gateway":{
			"cluster_peers":2,"cluster_merge_ms":100,
			"detect_bps":1000,"detect_for":["1.1.1.2"],"detect_window_ms":100}}`)); err != nil {
		t.Fatalf("boundary merge interval rejected: %v", err)
	}
	// With cluster_merge_ms unset, the cluster merges on the longer of
	// its 250 ms default and the detection window, never faster than the
	// window; an explicit interval equal to the window runs as given.
	for _, merge := range []string{``, `"cluster_merge_ms":500,`} {
		fc, err := ParseFileConfig([]byte(`{"role":"gateway","addr":"1.1.1.1","gateway":{` + merge +
			`"cluster_peers":2,"detect_bps":1000,"detect_for":["1.1.1.2"],"detect_window_ms":500}}`))
		if err != nil {
			t.Fatalf("merge %q: %v", merge, err)
		}
		gc, err := fc.GatewayConfig(nil)
		if err != nil {
			t.Fatalf("merge %q: %v", merge, err)
		}
		if gc.Cluster.MergeEvery != 500*time.Millisecond {
			t.Fatalf("merge %q under a 500ms window: cluster merges every %v, want 500ms", merge, gc.Cluster.MergeEvery)
		}
	}
	cg, err := NewGateway(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if cg.plane.Cluster() == nil {
		t.Fatal("cluster-configured gateway has no overlay")
	}
	cg.Close()
}

// TestGatewayProvisionedByRule: a gateway config with no capacity keys
// is provisioned by contract.GatewayCapacity for its timers and
// contracts. At t_ms 10000 and ttmp_ms 500 that is nv 50 + na(peer)
// 1,000 + na(client) 10 = 1,060 filters and mv 1,000 shadows. An
// explicit filter_capacity still wins.
func TestGatewayProvisionedByRule(t *testing.T) {
	for _, tc := range []struct {
		capacity         string
		filters, shadows int
	}{{``, 1060, 1000}, {`,"filter_capacity":77`, 77, 1000}} {
		fc, err := ParseFileConfig([]byte(`{"role":"gateway","addr":"1.1.1.1","gateway":{"clients":["1.1.1.2"],"t_ms":10000,"ttmp_ms":500` + tc.capacity + `}}`))
		if err != nil {
			t.Fatal(err)
		}
		gc, err := fc.GatewayConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGateway(gc)
		if err != nil {
			t.Fatal(err)
		}
		f, s := g.DataPlane().FilterCapacity(), g.DataPlane().ShadowCapacity()
		g.Close()
		if f != tc.filters || s != tc.shadows {
			t.Fatalf("capacity %q: %d filters, %d shadows; want %d and %d", tc.capacity, f, s, tc.filters, tc.shadows)
		}
	}
}

func TestParseHostConfig(t *testing.T) {
	cfg, err := ParseFileConfig([]byte(hostJSON))
	if err != nil {
		t.Fatal(err)
	}
	hcfg, err := cfg.HostConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if hcfg.Gateway != flow.MakeAddr(10, 0, 0, 1) {
		t.Fatalf("gateway = %v", hcfg.Gateway)
	}
	if hcfg.DetectBps != 20000 || !hcfg.Compliant {
		t.Fatalf("host opts = %+v", hcfg)
	}
	h, err := NewHost(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
}

func TestParseConfigErrors(t *testing.T) {
	cases := map[string]string{
		"not json":         `{`,
		"unknown role":     `{"role":"wizard","addr":"1.1.1.1"}`,
		"gateway no body":  `{"role":"gateway","addr":"1.1.1.1"}`,
		"host no body":     `{"role":"host","addr":"1.1.1.1"}`,
		"bad addr":         `{"role":"host","addr":"zzz","host":{"gateway":"1.1.1.1"}}`,
		"negative workers": `{"role":"gateway","addr":"1.1.1.1","gateway":{"workers":-1}}`,
		"fixed aggpfx":     `{"role":"gateway","addr":"1.1.1.1","gateway":{"aggregation_prefix_len":24}}`,
		"misspelled key":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"filter_capacty":10}}`,
		"trailing data":    `{"role":"host","addr":"1.1.1.1","host":{"gateway":"1.1.1.2"}}}`,
		"negative shards":  `{"role":"gateway","addr":"1.1.1.1","gateway":{"dataplane_shards":-4}}`,
		"shards over max":  `{"role":"gateway","addr":"1.1.1.1","gateway":{"dataplane_shards":1025}}`,
		"shards int max":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"dataplane_shards":9223372036854775807}}`,
		"negative cap":     `{"role":"gateway","addr":"1.1.1.1","gateway":{"filter_capacity":-10}}`,
		"negative timer":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"t_ms":-5}}`,
		"ttmp >= t":        `{"role":"gateway","addr":"1.1.1.1","gateway":{"t_ms":500,"ttmp_ms":600}}`,
		"ttmp vs default":  `{"role":"gateway","addr":"1.1.1.1","gateway":{"ttmp_ms":70000}}`,
		"t vs default":     `{"role":"gateway","addr":"1.1.1.1","gateway":{"t_ms":500}}`,
		"negative detect":  `{"role":"host","addr":"1.1.1.1","host":{"gateway":"1.1.1.2","detect_bps":-1}}`,
		"lens no alloc":    `{"role":"gateway","addr":"1.1.1.1","gateway":{"alloc_prefix_lens":[28]}}`,
		"alloc len zero":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"collateral_alloc":true,"alloc_prefix_lens":[0]}}`,
		"alloc len 32":     `{"role":"gateway","addr":"1.1.1.1","gateway":{"collateral_alloc":true,"alloc_prefix_lens":[28,32]}}`,
		"gw detect no for": `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000}}`,
		"gw detect neg":    `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":-2,"detect_for":["1.1.1.2"]}}`,
		"gw detect badfor": `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["zzz"]}}`,
		"gw sketch neg":    `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"sketch_depth":-1}}`,
		"gw width over":    `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"sketch_width":1048577}}`,
		"gw width int max": `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"sketch_width":9223372036854775807}}`,
		"gw depth over":    `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"sketch_depth":65}}`,
		"gw depth 17":      `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"sketch_depth":17}}`,
		"gw topk over":     `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"detect_topk":65537}}`,
		"gw topk int max":  `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"detect_topk":9223372036854775807}}`,
		"cluster one":      `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":1}}`,
		"cluster negative": `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":-2}}`,
		"cluster huge":     `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":65}}`,
		"cluster neg ms":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":2,"cluster_merge_ms":-250}}`,
		"merge < window":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":2,"cluster_merge_ms":100}}`,
		"merge < custom":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":2,"cluster_merge_ms":400,"detect_bps":1000,"detect_for":["1.1.1.2"],"detect_window_ms":500}}`,
		"merge just under": `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":2,"cluster_merge_ms":499,"detect_bps":1000,"detect_for":["1.1.1.2"],"detect_window_ms":500}}`,
		"knobs no peers":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_merge_ms":500}}`,
		"repl no peers":    `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_replication":true}}`,
		"window no user":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_window_ms":100}}`,
		"sketch budget":    `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"sketch_width":1048576,"sketch_depth":16,"cluster_peers":64}}`,
		"budget 2 peers":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"sketch_width":1048576,"sketch_depth":16,"cluster_peers":2}}`,
		"rto no attempts":  `{"role":"gateway","addr":"1.1.1.1","gateway":{"ctrl_rto_ms":100}}`,
		"jitter one shot":  `{"role":"gateway","addr":"1.1.1.1","gateway":{"ctrl_max_attempts":1,"ctrl_jitter":0.2}}`,
		"width no detect":  `{"role":"gateway","addr":"1.1.1.1","gateway":{"sketch_width":512}}`,
		"depth no detect":  `{"role":"gateway","addr":"1.1.1.1","gateway":{"sketch_depth":2}}`,
		"topk no detect":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_topk":16}}`,
		"for no detect":    `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_for":["1.1.1.2"]}}`,
	}
	for name, raw := range cases {
		if _, err := ParseFileConfig([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name != "not json" && !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
	// The sketch budget admits the default geometry on the largest
	// cluster and the largest geometry on one engine. A detection window
	// alone sets the cluster's merge default, so it needs no detect_bps.
	for name, raw := range map[string]string{
		"default sketches": `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"cluster_peers":64}}`,
		"largest sketch":   `{"role":"gateway","addr":"1.1.1.1","gateway":{"detect_bps":1000,"detect_for":["1.1.1.2"],"sketch_width":1048576,"sketch_depth":16}}`,
		"window alone":     `{"role":"gateway","addr":"1.1.1.1","gateway":{"cluster_peers":2,"detect_window_ms":500}}`,
	} {
		if _, err := ParseFileConfig([]byte(raw)); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

func TestNodeConfigErrors(t *testing.T) {
	bad := []*FileConfig{
		{Addr: "zz"},
		{Addr: "1.1.1.1", Book: map[string]string{"zz": "x"}},
		{Addr: "1.1.1.1", Routes: map[string]string{"zz": "1.1.1.1"}},
		{Addr: "1.1.1.1", Routes: map[string]string{"1.1.1.2": "zz"}},
	}
	for i, c := range bad {
		if _, err := c.NodeConfig(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Gateway/Host materialisation with bad sub-objects.
	g := &FileConfig{Addr: "1.1.1.1", Gateway: &GatewayFileConfig{Clients: []string{"zz"}}}
	if _, err := g.GatewayConfig(nil); err == nil {
		t.Error("bad client accepted")
	}
	h := &FileConfig{Addr: "1.1.1.1", Host: &HostFileConfig{Gateway: "zz"}}
	if _, err := h.HostConfig(nil); err == nil {
		t.Error("bad host gateway accepted")
	}
	if _, err := (&FileConfig{Addr: "1.1.1.1"}).GatewayConfig(nil); err == nil {
		t.Error("missing gateway object accepted")
	}
	if _, err := (&FileConfig{Addr: "1.1.1.1"}).HostConfig(nil); err == nil {
		t.Error("missing host object accepted")
	}
}
