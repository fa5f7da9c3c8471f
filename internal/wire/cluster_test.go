package wire

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/obs/obstest"
)

// clusterMetricNames is the aitf_cluster_* schema the admin endpoint
// and its /metrics.json snapshot expose; renaming one breaks
// dashboards, so this list is the lock.
var clusterMetricNames = []string{
	"aitf_cluster_log_length",
	"aitf_cluster_merge_rounds_total",
	"aitf_cluster_merge_bytes_total",
	"aitf_cluster_failovers_total",
	"aitf_cluster_catchup_ops_total",
	"aitf_cluster_catchup_ns_total",
	"aitf_cluster_detections_total",
	"aitf_cluster_merge_detections_total",
}

// TestWireClusterRoundOverUDP is TestLiveGatewayDetectionOverUDP with
// the victim's gateway run as a three-replica cluster: the sharded
// engines do the detecting, the full protocol round still completes,
// the replicated log records the installs, the wall-clock ticker runs
// merge rounds, and a replica kill mid-run loses no filters.
func TestWireClusterRoundOverUDP(t *testing.T) {
	var (
		victimA   = flow.MakeAddr(10, 0, 0, 2)
		vgwA      = flow.MakeAddr(10, 0, 0, 1)
		agwA      = flow.MakeAddr(10, 9, 0, 1)
		attackerA = flow.MakeAddr(10, 9, 0, 2)
	)
	tm := testTimers()
	client := contract.DefaultEndHost()
	chain := []flow.Addr{victimA, vgwA, agwA, attackerA}
	routes := func(self flow.Addr) map[flow.Addr]flow.Addr {
		pos := -1
		for i, a := range chain {
			if a == self {
				pos = i
			}
		}
		nh := make(map[flow.Addr]flow.Addr)
		for i, a := range chain {
			if i < pos {
				nh[a] = chain[pos-1]
			} else if i > pos {
				nh[a] = chain[pos+1]
			}
		}
		return nh
	}

	vgw, err := NewGateway(GatewayConfig{
		Node:    NodeConfig{Addr: vgwA, Name: "v_gw", NextHop: routes(vgwA)},
		Timers:  tm,
		Clients: map[flow.Addr]contract.Contract{victimA: client},
		Default: contract.DefaultPeer(),
		Secret:  []byte("vgw-secret"),
		Detect: detect.Config{
			ThresholdBps: 20_000,
			Window:       100 * time.Millisecond,
		},
		DetectFor: []flow.Addr{victimA},
		Cluster: cluster.Config{
			Replicas:   3,
			MergeEvery: 100 * time.Millisecond,
			Replicate:  true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vgw.Detector() != nil {
		t.Fatal("clustered gateway still built the single detection engine")
	}
	if vgw.plane.Cluster() == nil {
		t.Fatal("cluster config did not build the overlay")
	}
	agw, err := NewGateway(GatewayConfig{
		Node:    NodeConfig{Addr: agwA, Name: "a_gw", NextHop: routes(agwA)},
		Timers:  tm,
		Clients: map[flow.Addr]contract.Contract{attackerA: client},
		Default: contract.DefaultPeer(),
		Secret:  []byte("agw-secret"),
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewHost(HostConfig{ // legacy: no detection of its own
		Node:      NodeConfig{Addr: victimA, Name: "victim", NextHop: routes(victimA)},
		Gateway:   vgwA,
		Timers:    tm,
		Compliant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := NewHost(HostConfig{
		Node:      NodeConfig{Addr: attackerA, Name: "attacker", NextHop: routes(attackerA)},
		Gateway:   agwA,
		Timers:    tm,
		Compliant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	book := Book{
		victimA:   victim.Node().UDPAddr().String(),
		vgwA:      vgw.Node().UDPAddr().String(),
		agwA:      agw.Node().UDPAddr().String(),
		attackerA: attacker.Node().UDPAddr().String(),
	}
	for _, n := range []*Node{victim.Node(), attacker.Node(), vgw.Node(), agw.Node()} {
		n.SetBook(book)
	}
	victim.Run()
	attacker.Run()
	vgw.Run()
	agw.Run()
	t.Cleanup(func() {
		victim.Close()
		attacker.Close()
		vgw.Close()
		agw.Close()
	})

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				attacker.SendData(victimA, flow.ProtoUDP, 4000, 80, 500) // ~100 kB/s
			}
		}
	}()

	waitUntil(t, 5*time.Second, func() bool {
		return vgw.Stats().Detections > 0
	}, "clustered gateway never detected the flood")
	waitUntil(t, 5*time.Second, func() bool {
		return agw.Stats().HandshakesOK > 0
	}, "handshake never completed against the clustered victim gateway")
	waitUntil(t, 5*time.Second, func() bool {
		return vgw.plane.Cluster().Stats().MergeRounds > 0
	}, "the merge ticker never ran a round")

	clu := vgw.plane.Cluster()
	if clu.LogLen() == 0 {
		t.Fatal("no filter op reached the replicated log")
	}
	// Give one merge interval for the log to ship, then kill the replica
	// owning the attack flow: with replication on, the survivors must
	// inherit every live filter.
	time.Sleep(150 * time.Millisecond)
	owner := clu.Owner(attackerA, victimA)
	inherited, lost, ok := vgw.plane.KillReplica(owner, wallNow())
	if !ok {
		t.Fatalf("KillReplica(%d) refused", owner)
	}
	if lost != 0 {
		t.Fatalf("replicated failover lost %d filters (inherited %d)", lost, inherited)
	}
	if st := clu.Stats(); st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	if msg := clu.CheckConsistency(wallNow()); msg != "" {
		t.Fatalf("post-failover consistency: %s", msg)
	}
	// The dataplane never loses installed filters to a logical kill.
	if vgw.Filters().Len() == 0 && vgw.dp.ShadowLen() == 0 {
		t.Fatal("gateway holds neither filter nor shadow after the round")
	}
}

// TestWireClusterMetricsSchema locks the aitf_cluster_* observability
// schema: a clustered gateway exposes every instrument through both
// the Prometheus exposition and the /metrics.json snapshot shape, and
// an unclustered gateway exposes none of them.
func TestWireClusterMetricsSchema(t *testing.T) {
	fc, err := ParseFileConfig([]byte(`{
		"role":"gateway","addr":"10.0.0.1","listen":"127.0.0.1:0",
		"gateway":{"secret":"s","cluster_peers":3,"cluster_merge_ms":500,
		           "cluster_replication":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	gcfg, err := fc.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	if err := obstest.CheckExposition(expo); err != nil {
		t.Fatalf("clustered exposition invalid: %v", err)
	}
	for _, name := range clusterMetricNames {
		if !strings.Contains(expo, name) {
			t.Errorf("exposition lacks %s", name)
		}
	}
	// The same names must survive the JSON snapshot (the /metrics.json
	// representation).
	buf.Reset()
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snaps []obs.MetricSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snaps); err != nil {
		t.Fatalf("metrics.json shape: %v", err)
	}
	have := map[string]bool{}
	for _, s := range snaps {
		have[s.Name] = true
	}
	for _, name := range clusterMetricNames {
		if !have[name] {
			t.Errorf("metrics.json snapshot lacks %s", name)
		}
	}

	// An unclustered gateway must not leak the cluster namespace.
	plain, err := NewGateway(GatewayConfig{
		Node:   NodeConfig{Addr: flow.MakeAddr(10, 0, 0, 9)},
		Secret: []byte("s"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	preg := obs.NewRegistry()
	plain.RegisterMetrics(preg)
	buf.Reset()
	if err := preg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "aitf_cluster_") {
		t.Fatal("unclustered gateway exposes aitf_cluster_* metrics")
	}
}

// TestWireClusterSnapshotRestore: the replicated filter log rides the
// drain snapshot. A clustered gateway records installs, drains to
// disk, and a successor process (fresh epoch) restores the log with
// deadlines rebased onto its own clock — so a post-restore failover
// still inherits every live filter instead of re-detecting from zero.
func TestWireClusterSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Gateway {
		g, err := NewGateway(GatewayConfig{
			Node:         NodeConfig{Addr: flow.MakeAddr(10, 0, 0, 1), Name: "g"},
			Secret:       []byte("s"),
			SnapshotPath: filepath.Join(dir, "gw.snapshot.json"),
			Cluster:      cluster.Config{Replicas: 3, Replicate: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := mk()
	now := wallNow()
	labels := []flow.Label{
		flow.PairLabel(flow.MakeAddr(20, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2)),
		flow.PairLabel(flow.MakeAddr(20, 0, 0, 2), flow.MakeAddr(10, 0, 0, 2)),
	}
	g.mu.Lock()
	for _, l := range labels {
		if err := g.installVictimFilter(l, now, now+5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	g.mu.Unlock()
	wantLog := g.plane.Cluster().LogLen()
	if wantLog < len(labels) {
		t.Fatalf("log holds %d ops, want >= %d", wantLog, len(labels))
	}
	if err := g.Close(); err != nil { // drains the snapshot
		t.Fatal(err)
	}

	g2 := mk()
	defer g2.Close()
	if _, err := g2.RestoreFromDisk(); err != nil {
		t.Fatal(err)
	}
	if got := g2.plane.Cluster().LogLen(); got != wantLog {
		t.Fatalf("restored log holds %d ops, want %d", got, wantLog)
	}
	// Ops apply eagerly only at their origin replica; one merge round
	// ships the restored log to the others, as in live operation.
	g2.plane.Cluster().MergeRound(wallNow())
	// Every restored deadline must be live and rebased: in the future,
	// but no further out than the original 5s grant.
	now2 := wallNow()
	for id := 0; id < g2.plane.Cluster().Replicas(); id++ {
		view := g2.plane.Cluster().FilterView(id)
		for _, l := range labels {
			exp, ok := view[l]
			if !ok {
				t.Fatalf("replica %d lost %v across the restore", id, l)
			}
			if exp <= now2 || exp > now2+5*time.Second {
				t.Fatalf("replica %d deadline for %v not rebased: exp %v, now %v", id, l, exp, now2)
			}
		}
	}
	inherited, lost, ok := g2.plane.KillReplica(0, wallNow())
	if !ok || lost != 0 || inherited < len(labels) {
		t.Fatalf("post-restore failover: inherited %d, lost %d, ok %v", inherited, lost, ok)
	}
}

// TestWireClusterKillTraced: a replica kill lands on /trace as a typed
// replica-killed event. It concerns no flow, so the rendering omits the
// "flow" key rather than printing a zero label.
func TestWireClusterKillTraced(t *testing.T) {
	ring := obs.NewRing(16)
	g, err := NewGateway(GatewayConfig{
		Node:    NodeConfig{Addr: flow.MakeAddr(10, 0, 0, 1), Name: "g"},
		Secret:  []byte("s"),
		Cluster: cluster.Config{Replicas: 3},
		Trace:   obs.NewTrace(ring, slog.New(slog.DiscardHandler)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, _, ok := g.plane.KillReplica(1, wallNow()); !ok {
		t.Fatal("KillReplica(1) refused")
	}
	var killed []map[string]any
	for _, e := range traceJSON(t, ring) {
		if e["kind"] == "replica-killed" {
			killed = append(killed, e)
		}
	}
	if len(killed) != 1 || killed[0]["node"] != "g" || !strings.HasPrefix(killed[0]["detail"].(string), "replica 1:") {
		t.Fatalf("/trace replica-killed events = %v, want one for replica 1", killed)
	}
	if _, ok := killed[0]["flow"]; ok {
		t.Fatalf("replica-killed renders a flow: %v", killed[0])
	}
}

// TestWireClusterMergeTickerStopsOnClose: Close must stop the
// self-re-arming merge ticker — the round counter goes quiet once the
// gateway is closed.
func TestWireClusterMergeTickerStopsOnClose(t *testing.T) {
	g, err := NewGateway(GatewayConfig{
		Node:    NodeConfig{Addr: flow.MakeAddr(10, 0, 0, 1)},
		Secret:  []byte("s"),
		Cluster: cluster.Config{Replicas: 2, MergeEvery: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return g.plane.Cluster().Stats().MergeRounds > 0
	}, "merge ticker never fired")
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let any in-flight firing finish
	quiesced := g.plane.Cluster().Stats().MergeRounds
	time.Sleep(100 * time.Millisecond) // five intervals of silence
	if got := g.plane.Cluster().Stats().MergeRounds; got != quiesced {
		t.Fatalf("merge ticker still running after Close: %d -> %d rounds", quiesced, got)
	}
}
