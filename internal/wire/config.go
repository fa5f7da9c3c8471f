package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/obs"
)

// FileConfig is the JSON configuration consumed by cmd/aitfd. One file
// describes one node; a set of files describes a deployment.
type FileConfig struct {
	// Role is "gateway" or "host".
	Role string `json:"role"`
	// Addr is the node's protocol address (dotted quad).
	Addr string `json:"addr"`
	// Name labels log lines.
	Name string `json:"name"`
	// Listen is the UDP listen address.
	Listen string `json:"listen"`
	// Admin is the admin HTTP listen address (e.g. "127.0.0.1:9100")
	// serving /metrics, /healthz, /trace, and /debug/pprof. Empty
	// disables the admin endpoint.
	Admin string `json:"admin,omitempty"`
	// Book maps protocol addresses to UDP endpoints.
	Book map[string]string `json:"book"`
	// Routes maps destination addresses to next-hop addresses.
	Routes map[string]string `json:"routes"`
	// Gateway is required when Role is "gateway".
	Gateway *GatewayFileConfig `json:"gateway,omitempty"`
	// Host is required when Role is "host".
	Host *HostFileConfig `json:"host,omitempty"`
}

// GatewayFileConfig is the gateway-specific part of FileConfig.
type GatewayFileConfig struct {
	// Clients lists directly served client addresses.
	Clients []string `json:"clients"`
	// Secret keys the route-record authenticator.
	Secret string `json:"secret"`
	// TMs is the filter lifetime T in milliseconds (0 = default).
	TMs int `json:"t_ms"`
	// TtmpMs is the temporary-filter lifetime in milliseconds.
	TtmpMs int `json:"ttmp_ms"`
	// Capacity bounds the filter table (0 = default).
	Capacity int `json:"filter_capacity"`
	// Shards partitions the data-plane classification engine
	// (0 = GOMAXPROCS).
	Shards int `json:"dataplane_shards"`
	// CollateralAlloc enables coalescing sibling filters into covering
	// source-prefix filters under table pressure, chosen by the
	// collateral-aware allocator (internal/alloc): candidate prefixes
	// are priced in estimated collateral legit bytes (using the
	// gateway's detection sketch when armed) and the cheapest cover is
	// installed.
	CollateralAlloc bool `json:"collateral_alloc"`
	// AllocPrefixLens optionally names the allocator's candidate source
	// prefix lengths (each 1..31); empty uses the built-in /28…/16
	// ladder, and [24] is a fixed /24 fallback. Only meaningful with
	// collateral_alloc.
	AllocPrefixLens []int `json:"alloc_prefix_lens"`
	// DetectBps arms gateway-side sketch detection: traffic toward the
	// DetectFor clients above this rate (bytes/second) is flagged and
	// filtered on their behalf. 0 disables gateway-side detection.
	DetectBps float64 `json:"detect_bps"`
	// DetectFor lists the protected legacy client addresses; required
	// (non-empty) when DetectBps > 0.
	DetectFor []string `json:"detect_for"`
	// DetectWindowMs is the detection measurement window in
	// milliseconds (0 = the engine default, 250).
	DetectWindowMs int `json:"detect_window_ms"`
	// SketchWidth / SketchDepth set the count-min geometry and
	// DetectTopK the heavy-hitter budget (0 = engine defaults:
	// 1024 × 4, 128).
	SketchWidth int `json:"sketch_width"`
	SketchDepth int `json:"sketch_depth"`
	DetectTopK  int `json:"detect_topk"`
	// CtrlMaxAttempts bounds control-plane transmissions per logical
	// message (retry + backoff); 0 or 1 sends exactly once.
	CtrlMaxAttempts int `json:"ctrl_max_attempts"`
	// CtrlRtoMs is the first retransmission timeout in milliseconds,
	// doubling per attempt (0 = default 250 when retransmission is on).
	CtrlRtoMs int `json:"ctrl_rto_ms"`
	// CtrlJitter spreads each retransmission timer by a uniform factor
	// in [0, CtrlJitter); must be in [0, 1).
	CtrlJitter float64 `json:"ctrl_jitter"`
	// SnapshotPath, when set, makes the gateway write its durable state
	// (filters, shadows, pendings, counters) there on graceful drain and
	// restore it on the next boot, honoring the original deadlines.
	SnapshotPath string `json:"snapshot_path"`
	// ClusterPeers runs the gateway as a cluster of this many logical
	// replicas (internal/cluster): each observes a rendezvous-hash slice
	// of the flows, merge rounds exchange detection state, and filter
	// mutations feed a replicated log so failover never re-detects from
	// zero. Valid values are 0 (disabled) or 2..64.
	ClusterPeers int `json:"cluster_peers"`
	// ClusterMergeMs is the merge-round interval in milliseconds
	// (0 = the cluster default, 250). It must not be shorter than the
	// effective detection window — merging faster than the sketches
	// rotate only reships identical state.
	ClusterMergeMs int `json:"cluster_merge_ms"`
	// ClusterHashSeed perturbs the rendezvous hash assigning flows to
	// replicas (0 = derive from the node address).
	ClusterHashSeed uint64 `json:"cluster_hash_seed"`
	// ClusterReplication arms the replicated filter log; off, each
	// replica keeps only its own filter view (the independent-gateways
	// baseline that loses filters at failover).
	ClusterReplication bool `json:"cluster_replication"`
}

// HostFileConfig is the host-specific part of FileConfig.
type HostFileConfig struct {
	// Gateway is the host's AITF gateway address.
	Gateway string `json:"gateway"`
	// DetectBps flags sources above this rate (0 disables detection).
	DetectBps float64 `json:"detect_bps"`
	// Compliant hosts honour stop orders.
	Compliant bool `json:"compliant"`
}

// ErrBadConfig reports an invalid daemon configuration.
var ErrBadConfig = errors.New("wire: bad config")

// ParseFileConfig parses and validates a JSON node configuration. An
// unknown (or misspelled) key is an error, not a knob left at default.
func ParseFileConfig(raw []byte) (*FileConfig, error) {
	var cfg FileConfig
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the config object", ErrBadConfig)
	}
	switch cfg.Role {
	case "gateway":
		if cfg.Gateway == nil {
			return nil, fmt.Errorf("%w: role gateway needs a \"gateway\" object", ErrBadConfig)
		}
		if err := cfg.Gateway.validate(); err != nil {
			return nil, err
		}
	case "host":
		if cfg.Host == nil {
			return nil, fmt.Errorf("%w: role host needs a \"host\" object", ErrBadConfig)
		}
		if cfg.Host.DetectBps < 0 {
			return nil, fmt.Errorf("%w: detect_bps %v is negative", ErrBadConfig, cfg.Host.DetectBps)
		}
	default:
		return nil, fmt.Errorf("%w: unknown role %q", ErrBadConfig, cfg.Role)
	}
	if _, err := flow.ParseAddr(cfg.Addr); err != nil {
		return nil, fmt.Errorf("%w: addr: %v", ErrBadConfig, err)
	}
	return &cfg, nil
}

// validate rejects gateway knobs outside their meaningful ranges.
func (g *GatewayFileConfig) validate() error {
	if g.Shards < 0 {
		return fmt.Errorf("%w: dataplane_shards %d is negative", ErrBadConfig, g.Shards)
	}
	if g.Capacity < 0 {
		return fmt.Errorf("%w: filter_capacity %d is negative", ErrBadConfig, g.Capacity)
	}
	if len(g.AllocPrefixLens) > 0 && !g.CollateralAlloc {
		return fmt.Errorf("%w: alloc_prefix_lens set without collateral_alloc", ErrBadConfig)
	}
	for _, l := range g.AllocPrefixLens {
		if l < 1 || l > 31 {
			return fmt.Errorf("%w: alloc_prefix_lens entry %d outside 1..31", ErrBadConfig, l)
		}
	}
	if g.TMs < 0 || g.TtmpMs < 0 {
		return fmt.Errorf("%w: negative timer (t_ms %d, ttmp_ms %d)", ErrBadConfig, g.TMs, g.TtmpMs)
	}
	if g.DetectBps < 0 {
		return fmt.Errorf("%w: detect_bps %v is negative", ErrBadConfig, g.DetectBps)
	}
	if g.DetectBps > 0 && len(g.DetectFor) == 0 {
		return fmt.Errorf("%w: detect_bps set but detect_for is empty", ErrBadConfig)
	}
	if g.DetectWindowMs < 0 || g.SketchWidth < 0 || g.SketchDepth < 0 || g.DetectTopK < 0 {
		return fmt.Errorf("%w: negative detection knob (window %dms, width %d, depth %d, topk %d)",
			ErrBadConfig, g.DetectWindowMs, g.SketchWidth, g.SketchDepth, g.DetectTopK)
	}
	for _, a := range g.DetectFor {
		if _, err := flow.ParseAddr(a); err != nil {
			return fmt.Errorf("%w: detect_for %q: %v", ErrBadConfig, a, err)
		}
	}
	if g.ClusterPeers != 0 && (g.ClusterPeers < 2 || g.ClusterPeers > 64) {
		return fmt.Errorf("%w: cluster_peers %d outside 0 or 2..64", ErrBadConfig, g.ClusterPeers)
	}
	if g.ClusterMergeMs < 0 {
		return fmt.Errorf("%w: cluster_merge_ms %d is negative", ErrBadConfig, g.ClusterMergeMs)
	}
	if g.ClusterPeers == 0 && (g.ClusterMergeMs != 0 || g.ClusterHashSeed != 0 || g.ClusterReplication) {
		return fmt.Errorf("%w: cluster knobs set without cluster_peers", ErrBadConfig)
	}
	if g.ClusterPeers >= 2 && g.ClusterMergeMs > 0 {
		// Merging faster than the detection window rotates reships the
		// same sketch state; reject the interval outright rather than
		// silently clamping it.
		win := g.DetectWindowMs
		if win == 0 {
			win = 250 // the detect engine's default window
		}
		if g.ClusterMergeMs < win {
			return fmt.Errorf("%w: cluster_merge_ms %d shorter than the %dms detection window",
				ErrBadConfig, g.ClusterMergeMs, win)
		}
	}
	if g.CtrlMaxAttempts < 0 || g.CtrlRtoMs < 0 {
		return fmt.Errorf("%w: negative retransmission knob (attempts %d, rto %dms)",
			ErrBadConfig, g.CtrlMaxAttempts, g.CtrlRtoMs)
	}
	if g.CtrlJitter < 0 || g.CtrlJitter >= 1 {
		return fmt.Errorf("%w: ctrl_jitter %v outside [0, 1)", ErrBadConfig, g.CtrlJitter)
	}
	// Validate the timers as they will actually be materialised — an
	// explicit value combined with the other's default must still
	// satisfy Ttmp ≪ T (contract.Timers.Validate).
	if err := g.timers().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

// timers materialises the effective protocol timers: defaults with the
// configured overrides applied.
func (g *GatewayFileConfig) timers() contract.Timers {
	tm := contract.DefaultTimers()
	if g.TMs > 0 {
		tm.T = time.Duration(g.TMs) * time.Millisecond
	}
	if g.TtmpMs > 0 {
		tm.Ttmp = time.Duration(g.TtmpMs) * time.Millisecond
	}
	return tm
}

// NodeConfig materialises the transport part of the file config.
func (c *FileConfig) NodeConfig() (NodeConfig, error) {
	addr, err := flow.ParseAddr(c.Addr)
	if err != nil {
		return NodeConfig{}, fmt.Errorf("%w: addr %q: %v", ErrBadConfig, c.Addr, err)
	}
	book := Book{}
	for a, ep := range c.Book {
		fa, err := flow.ParseAddr(a)
		if err != nil {
			return NodeConfig{}, fmt.Errorf("%w: book key %q: %v", ErrBadConfig, a, err)
		}
		book[fa] = ep
	}
	routes := map[flow.Addr]flow.Addr{}
	for dst, via := range c.Routes {
		d, err := flow.ParseAddr(dst)
		if err != nil {
			return NodeConfig{}, fmt.Errorf("%w: route key %q: %v", ErrBadConfig, dst, err)
		}
		v, err := flow.ParseAddr(via)
		if err != nil {
			return NodeConfig{}, fmt.Errorf("%w: route value %q: %v", ErrBadConfig, via, err)
		}
		routes[d] = v
	}
	return NodeConfig{
		Addr: addr, Name: c.Name, Listen: c.Listen,
		Book: book, NextHop: routes,
	}, nil
}

// GatewayConfig materialises a gateway from the file config. trace may
// be nil (no ring, default slog).
func (c *FileConfig) GatewayConfig(trace *obs.Trace) (GatewayConfig, error) {
	node, err := c.NodeConfig()
	if err != nil {
		return GatewayConfig{}, err
	}
	if c.Gateway == nil {
		return GatewayConfig{}, fmt.Errorf("%w: missing gateway object", ErrBadConfig)
	}
	tm := c.Gateway.timers()
	if err := tm.Validate(); err != nil {
		return GatewayConfig{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	clients := map[flow.Addr]contract.Contract{}
	for _, cl := range c.Gateway.Clients {
		ca, err := flow.ParseAddr(cl)
		if err != nil {
			return GatewayConfig{}, fmt.Errorf("%w: client %q: %v", ErrBadConfig, cl, err)
		}
		clients[ca] = contract.DefaultEndHost()
	}
	cfg := GatewayConfig{
		Node:            node,
		Timers:          tm,
		FilterCapacity:  c.Gateway.Capacity,
		Clients:         clients,
		Default:         contract.DefaultPeer(),
		Secret:          []byte(c.Gateway.Secret),
		Trace:           trace,
		DataplaneShards: c.Gateway.Shards,
		SnapshotPath:    c.Gateway.SnapshotPath,
	}
	if c.Gateway.CtrlMaxAttempts > 1 {
		rto := time.Duration(c.Gateway.CtrlRtoMs) * time.Millisecond
		if rto <= 0 {
			rto = 250 * time.Millisecond
		}
		cfg.Control = RetryConfig{
			MaxAttempts: c.Gateway.CtrlMaxAttempts,
			RTO:         rto,
			Jitter:      c.Gateway.CtrlJitter,
		}
	}
	if c.Gateway.CollateralAlloc {
		pol := &alloc.Policy{}
		for _, l := range c.Gateway.AllocPrefixLens {
			pol.PrefixLens = append(pol.PrefixLens, uint8(l))
		}
		cfg.Allocation = pol
	}
	if c.Gateway.ClusterPeers >= 2 {
		seed := c.Gateway.ClusterHashSeed
		if seed == 0 {
			// Same idiom as the detection seed: deterministic for a given
			// config, different across gateways.
			seed = uint64(node.Addr)
		}
		cfg.Cluster = cluster.Config{
			Replicas:   c.Gateway.ClusterPeers,
			MergeEvery: time.Duration(c.Gateway.ClusterMergeMs) * time.Millisecond,
			HashSeed:   seed,
			Replicate:  c.Gateway.ClusterReplication,
		}
	}
	if c.Gateway.DetectBps > 0 {
		cfg.Detect = detect.Config{
			ThresholdBps: c.Gateway.DetectBps,
			Window:       time.Duration(c.Gateway.DetectWindowMs) * time.Millisecond,
			Width:        c.Gateway.SketchWidth,
			Depth:        c.Gateway.SketchDepth,
			TopK:         c.Gateway.DetectTopK,
			// A per-node hash seed: deterministic for a given config,
			// different across gateways.
			Seed: uint64(node.Addr),
		}
		for _, a := range c.Gateway.DetectFor {
			fa, err := flow.ParseAddr(a)
			if err != nil {
				return GatewayConfig{}, fmt.Errorf("%w: detect_for %q: %v", ErrBadConfig, a, err)
			}
			cfg.DetectFor = append(cfg.DetectFor, fa)
		}
	}
	return cfg, nil
}

// HostConfig materialises a host from the file config. trace may be
// nil (no ring, default slog).
func (c *FileConfig) HostConfig(trace *obs.Trace) (HostConfig, error) {
	node, err := c.NodeConfig()
	if err != nil {
		return HostConfig{}, err
	}
	if c.Host == nil {
		return HostConfig{}, fmt.Errorf("%w: missing host object", ErrBadConfig)
	}
	gw, err := flow.ParseAddr(c.Host.Gateway)
	if err != nil {
		return HostConfig{}, fmt.Errorf("%w: gateway %q: %v", ErrBadConfig, c.Host.Gateway, err)
	}
	return HostConfig{
		Node:      node,
		Gateway:   gw,
		Timers:    contract.DefaultTimers(),
		DetectBps: c.Host.DetectBps,
		Compliant: c.Host.Compliant,
		Trace:     trace,
	}, nil
}
