package aitf

import (
	"time"

	"aitf/internal/alloc"
	"aitf/internal/attack"
	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/core"
	"aitf/internal/ctrl"
	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// Options configures a deployment. The zero value is not useful; start
// from DefaultOptions.
type Options struct {
	// Seed drives every random choice; equal seeds replay identically.
	Seed int64
	// Params tunes link delays, the tail-circuit bandwidth and queues.
	Params topology.Params
	// Timers are the protocol time constants.
	Timers Timers
	// ShadowMode selects on-off reappearance handling at gateways.
	ShadowMode ShadowMode
	// ClientContract governs host↔gateway request rates (R1/R2).
	ClientContract Contract
	// PeerContract governs gateway↔gateway request rates.
	PeerContract Contract
	// FilterCapacity bounds every gateway's filter table; 0 derives the
	// paper's provisioning (nv + na) from the contracts and timers.
	FilterCapacity int
	// ShadowCapacity bounds every gateway's shadow cache; 0 derives
	// mv = R1·T.
	ShadowCapacity int
	// Evict selects the filter tables' full-table policy.
	Evict filter.EvictPolicy
	// HandshakeTimeout bounds the 3-way handshake.
	HandshakeTimeout time.Duration
	// Detector builds the classifier installed on each victim host;
	// nil victims never complain. Called once per host.
	Detector func() core.Detector
	// IngressFiltering enables spoofed-source dropping at gateways for
	// directly attached hosts (§III-A).
	IngressFiltering bool
	// ReRequestGap bounds how often a victim re-reports a reappearing
	// flow; 0 keeps the host default.
	ReRequestGap time.Duration
	// CollectTrace retains the protocol event log on the deployment.
	CollectTrace bool
	// DataplaneShards partitions each gateway's classification engine;
	// 0 keeps one shard (ideal for the single-threaded simulator).
	DataplaneShards int
	// Allocation enables the §IV fallback to coarser filters at every
	// gateway: under filter-table pressure, sibling filters coalesce
	// into covering source-prefix filters chosen by the collateral-aware
	// allocator (internal/alloc) — candidate prefixes at the policy's
	// lengths, priced in estimated collateral legit bytes, chosen by
	// greedy weighted set-cover, refined each review tick and split back
	// on relief. A fixed /24 fallback is &AllocationPolicy{PrefixLens:
	// []uint8{24}}. nil disables aggregation.
	Allocation *alloc.Policy
	// Control configures the reliable control plane (internal/ctrl) at
	// every gateway: bounded retransmission with exponential backoff
	// around protocol sends. The zero value keeps single-shot sends (the
	// historical behaviour, and the right choice on loss-free links).
	Control ctrl.Config
	// Cluster, when enabled (Replicas >= 2), runs every deployed
	// gateway as a cluster of k logical replicas: detection
	// observations shard to each flow's owning replica by rendezvous
	// hash, filter-table mutations append to a replicated log, and a
	// recurring merge round exchanges detection state so any replica
	// can cross the threshold for the whole cluster. The zero value
	// keeps the classic single-replica gateway.
	Cluster cluster.Config
	// GatewayDetect is the sketch-detection template for gateways that
	// defend legacy clients (GatewaySpec.DetectFor): the gateway runs
	// an internal/detect engine on its own data path and files
	// filtering requests on the clients' behalf. Per-gateway hash
	// seeds are derived from Seed and the gateway node, so deployments
	// replay identically. A zero ThresholdBps leaves gateway-side
	// detection off even where DetectFor is set.
	GatewayDetect detect.Config
}

// DefaultOptions mirrors the paper's worked examples: T = 1 min,
// Ttmp = 600 ms, R1 = 100/s, R2 = 1/s, 50 ms access delay, 10 Mbit/s
// tail circuit, and a rate detector that flags floods within ~1 s.
func DefaultOptions() Options {
	return Options{
		Seed:             1,
		Params:           topology.DefaultParams(),
		Timers:           contract.DefaultTimers(),
		ShadowMode:       VictimDriven,
		ClientContract:   contract.DefaultEndHost(),
		PeerContract:     contract.DefaultPeer(),
		HandshakeTimeout: time.Second,
		Detector: func() core.Detector {
			return attack.NewRateDetector(25_000, 500*time.Millisecond)
		},
		CollectTrace: true,
	}
}

func (o Options) filterCapacity() int {
	if o.FilterCapacity > 0 {
		return o.FilterCapacity
	}
	return contract.VictimGatewayFilters(o.ClientContract.R1, o.Timers.Ttmp) +
		contract.AttackerGatewayFilters(o.PeerContract.R2, o.Timers.T) +
		contract.AttackerGatewayFilters(o.ClientContract.R2, o.Timers.T)
}

func (o Options) shadowCapacity() int {
	if o.ShadowCapacity > 0 {
		return o.ShadowCapacity
	}
	return contract.VictimGatewayShadows(o.ClientContract.R1, o.Timers.T)
}

func (o Options) gatewayConfig() core.GatewayConfig {
	cfg := core.DefaultGatewayConfig()
	cfg.Timers = o.Timers
	cfg.FilterCapacity = o.filterCapacity()
	cfg.ShadowCapacity = o.shadowCapacity()
	cfg.Evict = o.Evict
	cfg.ShadowMode = o.ShadowMode
	cfg.HandshakeTimeout = o.HandshakeTimeout
	cfg.Default = o.PeerContract
	cfg.Allocation = o.Allocation
	cfg.Control = o.Control
	cfg.Cluster = o.Cluster
	return cfg
}

// Deployment is a network with AITF nodes installed and running.
type Deployment struct {
	Engine *sim.Engine
	Net    *netsim.Network
	Topo   *topology.Topology
	Log    *Log

	Gateways map[topology.NodeID]*Gateway
	Hosts    map[topology.NodeID]*Host

	opt Options
}

func newDeployment(opt Options, topo *topology.Topology) *Deployment {
	eng := sim.NewEngine(opt.Seed)
	d := &Deployment{
		Engine:   eng,
		Net:      netsim.MustBuild(eng, topo),
		Topo:     topo,
		Gateways: make(map[topology.NodeID]*Gateway),
		Hosts:    make(map[topology.NodeID]*Host),
		opt:      opt,
	}
	if opt.CollectTrace {
		d.Log = &Log{}
	}
	return d
}

func (d *Deployment) tracer() core.Tracer {
	if d.Log == nil {
		return nil
	}
	return d.Log.Record
}

// Run advances the simulation by dur of virtual time.
func (d *Deployment) Run(dur time.Duration) {
	d.Engine.RunUntil(d.Engine.Now() + dur)
}

// Now returns the current virtual time.
func (d *Deployment) Now() time.Duration { return d.Engine.Now() }

// addGateway installs an AITF gateway on node id.
func (d *Deployment) addGateway(id topology.NodeID, cfg core.GatewayConfig) *Gateway {
	if cfg.DataplaneShards == 0 {
		cfg.DataplaneShards = d.opt.DataplaneShards
	}
	g := core.NewGateway(cfg)
	g.Attach(d.Net.Node(id), d.tracer())
	d.Gateways[id] = g
	return g
}

// CrashGateway models a gateway process crash on node id: the
// protocol control plane halts (timers cancelled, retransmission
// ladders stopped), the netsim node drops its queues and detaches its
// handler, and everything arriving until RestoreGateway is dropped.
// It returns a snapshot of the durable state taken just before the
// crash — pass it to RestoreGateway to model stable storage, or
// discard it to model total state loss.
func (d *Deployment) CrashGateway(id topology.NodeID) *core.GatewaySnapshot {
	g := d.Gateways[id]
	if g == nil {
		return nil
	}
	snap := g.Snapshot()
	g.Halt()
	d.Net.Node(id).Crash()
	if d.Log != nil {
		d.Log.Record(Event{At: d.Engine.Now(), Node: d.Net.Node(id).Name(),
			Kind: EvGatewayCrashed, Detail: "gateway crashed"})
	}
	return snap
}

// RestoreGateway restarts the gateway on node id after CrashGateway: a
// fresh core.Gateway (same config) attaches to the restarted node and,
// when snap is non-nil, re-adopts the snapshotted filters, shadows,
// and pendings with their original absolute deadlines. The new gateway
// replaces the old one in d.Gateways.
func (d *Deployment) RestoreGateway(id topology.NodeID, snap *core.GatewaySnapshot) *Gateway {
	old := d.Gateways[id]
	if old == nil {
		return nil
	}
	n := d.Net.Node(id)
	n.Restart()
	g := core.NewGateway(old.Config())
	g.Attach(n, d.tracer())
	if snap != nil {
		g.Restore(snap)
	}
	d.Gateways[id] = g
	return g
}

// addHost installs an AITF host on node id.
func (d *Deployment) addHost(id topology.NodeID, cfg core.HostConfig) *Host {
	h := core.NewHost(cfg)
	h.Attach(d.Net.Node(id), d.tracer())
	d.Hosts[id] = h
	return h
}

// hostConfig builds a host config toward the given gateway; detect
// installs the victim-side classifier.
func (d *Deployment) hostConfig(gw flow.Addr, detect bool) core.HostConfig {
	cfg := core.DefaultHostConfig(gw)
	cfg.Timers = d.opt.Timers
	cfg.Contract = d.opt.ClientContract
	if d.opt.ReRequestGap > 0 {
		cfg.ReRequestGap = d.opt.ReRequestGap
	}
	if detect && d.opt.Detector != nil {
		cfg.Detector = d.opt.Detector()
	}
	return cfg
}

// Flood builds (but does not launch) a constant-rate flood between two
// deployed hosts; rate is payload bytes/second.
func (d *Deployment) Flood(from *Host, to *Host, rate float64) *attack.Flood {
	return &attack.Flood{
		From:       from,
		Dst:        to.Node().Addr(),
		Rate:       rate,
		PacketSize: 1000,
		SrcPort:    4000,
		DstPort:    80,
	}
}

// addrOf returns the address of a topology node.
func (d *Deployment) addrOf(id topology.NodeID) flow.Addr {
	return d.Topo.Nodes[id].Addr
}
