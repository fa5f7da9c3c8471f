package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/traceback"
)

// ShadowMode selects how a victim's gateway reacts when an "on-off"
// flow reappears while its shadow entry is live (§II-B footnote 2/3).
type ShadowMode uint8

const (
	// VictimDriven is the paper's model: the reappearing flow reaches
	// the victim, which re-detects it (by matching the packet header to
	// its own log — footnote 8) and re-sends a filtering request; the
	// per-round leak is ≈ (Td_re + Tr)·B.
	VictimDriven ShadowMode = iota
	// GatewayAuto re-installs the temporary filter the moment the
	// gateway's data path sees a shadow-logged flow reappear; the
	// per-round leak shrinks to the packets already in flight. Ablated
	// against VictimDriven in experiment E6.
	GatewayAuto
	// ShadowOff disables the DRAM cache entirely (ablation): every
	// reappearance is a brand-new attack and escalation never engages.
	ShadowOff
)

func (m ShadowMode) String() string {
	switch m {
	case VictimDriven:
		return "victim-driven"
	case GatewayAuto:
		return "gateway-auto"
	case ShadowOff:
		return "shadow-off"
	default:
		return "mode?"
	}
}

// GatewayConfig configures one AITF border router.
type GatewayConfig struct {
	// Timers are the protocol time constants (T, Ttmp, Grace, Penalty).
	Timers contract.Timers
	// FilterCapacity bounds the wire-speed filter table.
	FilterCapacity int
	// ShadowCapacity bounds the DRAM request log.
	ShadowCapacity int
	// Evict selects the filter table's full-table policy.
	Evict filter.EvictPolicy
	// ShadowMode selects on-off reappearance handling.
	ShadowMode ShadowMode
	// Cooperative is false for a gateway that ignores filtering
	// requests addressed to it as the attacker's gateway (the
	// non-cooperating node of §IV-A.1).
	Cooperative bool
	// Provider is the address of this gateway's own AITF gateway, used
	// for escalation; zero means this is a top-level border router.
	Provider flow.Addr
	// Secret keys the route-record authenticator.
	Secret []byte
	// HandshakeTimeout bounds the 3-way handshake; a verification query
	// unanswered for this long rejects the request.
	HandshakeTimeout time.Duration
	// Clients maps each directly attached client (end-host or
	// downstream gateway) to its filtering contract.
	Clients map[flow.Addr]contract.Contract
	// Peers maps peering border routers to their contracts.
	Peers map[flow.Addr]contract.Contract
	// Default is the contract applied to filtering requests arriving
	// through neighbors with no explicit contract (e.g. via a non-AITF
	// core); a zero rate drops all such requests.
	Default contract.Contract
	// IngressValidSrc optionally lists, per client neighbor address,
	// the source addresses allowed on packets entering through that
	// client (ingress filtering, §III-A). Empty slice or missing key
	// means no check for that neighbor.
	IngressValidSrc map[flow.Addr][]flow.Addr
	// DataplaneShards sets the classification engine's partition count
	// (0 or 1 keeps a single shard, which is ideal for the
	// single-threaded simulator; the wire runtime uses more).
	DataplaneShards int
	// Allocation enables the §IV fallback to coarser filters: when the
	// wire-speed table cannot hold a victim-side filter, the allocator
	// (internal/alloc) scores candidate source prefixes at every policy
	// length by estimated collateral legit bytes — using the gateway's
	// detection engine as the traffic view when armed — and coalesces
	// the cheapest sibling set freeing a slot into covering prefix
	// filters. Outstanding aggregates are split back when the pressure
	// subsides, or refined to deeper policy lengths as the table
	// relaxes. A fixed /24 fallback is the one-rung policy
	// {PrefixLens: [24]}. nil disables aggregation (the
	// hardware-faithful reject-only behaviour).
	Allocation *alloc.Policy
	// Detection, when non-nil and armed, runs a sketch-based
	// heavy-hitter engine (internal/detect) on the gateway's own data
	// path, defending the listed protected destinations: legacy
	// clients that do not speak AITF and cannot file their own
	// filtering requests. On a detection the gateway plays the victim
	// itself — temporary filter, shadow log, request to the attacker's
	// gateway with the route-record evidence it observed, handshake
	// answered from its own watch state.
	Detection *GatewayDetection
	// Control configures the reliable control-plane messenger: bounded
	// retransmission with exponential backoff wrapped around this
	// gateway's protocol sends (filtering requests, handshake legs,
	// stop orders, escalations). The zero value disables retransmission
	// — every send is single-shot, the pre-messenger behaviour.
	Control ControlConfig
	// Cluster, when enabled (Replicas >= 2), runs this gateway as k
	// logical replicas: detection shards by rendezvous hash over the
	// flow pair, filter mutations replicate through a sequence-numbered
	// log, and a recurring merge round exchanges detection state so a
	// replica crash is a failover, not a re-detection from zero
	// (internal/cluster).
	Cluster cluster.Config
}

// GatewayDetection configures gateway-side detection on behalf of
// legacy (non-AITF) hosts behind this gateway.
type GatewayDetection struct {
	detect.Config
	// Protected lists the destinations the gateway defends; only
	// traffic addressed to one of them is observed.
	Protected []flow.Addr
}

// DefaultGatewayConfig returns a cooperative gateway provisioned per
// the paper's worked examples.
func DefaultGatewayConfig() GatewayConfig {
	tm := contract.DefaultTimers()
	eh := contract.DefaultEndHost()
	return GatewayConfig{
		Timers:           tm,
		FilterCapacity:   contract.VictimGatewayFilters(eh.R1, tm.Ttmp) + contract.AttackerGatewayFilters(eh.R2, tm.T),
		ShadowCapacity:   contract.VictimGatewayShadows(eh.R1, tm.T),
		Evict:            filter.RejectNew,
		ShadowMode:       VictimDriven,
		Cooperative:      true,
		HandshakeTimeout: time.Second,
		Clients:          map[flow.Addr]contract.Contract{},
		Peers:            map[flow.Addr]contract.Contract{},
		Default:          contract.DefaultPeer(),
	}
}

// GatewayStats aggregates protocol counters for experiments.
type GatewayStats struct {
	DataForwarded   uint64
	FilterDrops     uint64
	DisconnectDrops uint64
	SpoofDrops      uint64

	ReqReceived  uint64
	ReqPoliced   uint64
	ReqInvalid   uint64
	ReqAccepted  uint64
	MsgProcessed uint64 // control messages handled: the CPU-cost proxy

	HandshakesStarted uint64
	HandshakesOK      uint64
	HandshakesFailed  uint64

	StopOrders     uint64
	Escalations    uint64
	Disconnects    uint64
	LongBlocks     uint64
	ShadowReblocks uint64

	// Detections counts gateway-side sketch detections: attacks this
	// gateway flagged on behalf of a protected legacy client.
	Detections uint64

	// Aggregation under filter-table pressure (§IV fallback).
	Aggregations       uint64 // sibling groups coalesced into a prefix filter
	AggregatedChildren uint64 // child filters folded across all aggregations
	AggregateSplits    uint64 // aggregates split back after pressure relief
	AggregateCovered   uint64 // installs satisfied by a live covering aggregate
	// AggregateCollateral accumulates, per aggregation, the covered
	// source-address count minus the actual offenders — the worst-case
	// collateral-damage exposure the coarser filters accept in exchange
	// for fitting the table.
	AggregateCollateral uint64
	// AggregateCollateralBytes accumulates, per aggregation, the
	// estimated legitimate bytes per detection window the installed
	// aggregate blocks (alloc.Assess pricing: measured unflagged pair
	// estimates under the prefix, baseline fallback otherwise), so
	// runs under different policies are directly comparable.
	AggregateCollateralBytes uint64
	// AggregateRefinements counts review-tick re-allocations that
	// replaced a live aggregate with deeper, cheaper prefixes.
	AggregateRefinements uint64

	// Reliable control-plane messenger (fault tolerance).
	CtrlReliableSends uint64 // logical sends handed to the messenger
	CtrlRetransmits   uint64 // extra attempts beyond each first transmission
	CtrlDupDrops      uint64 // duplicate deliveries suppressed by txid dedup
}

// vwatch tracks one undesired flow for which this gateway acts (or
// acted) as a victim-side gateway.
type vwatch struct {
	label       flow.Label
	victim      flow.Addr // requester this round's handshake is answered for
	evidence    traceback.AttackPath
	ingress     flow.Addr // neighbor the flow last arrived through
	round       int
	lastSeen    sim.Time
	haveSeen    bool
	tempUntil   sim.Time
	installedAt sim.Time
	check       *sim.Event
	// reqTok/escTok cancel the reliable-send ladders for this watch's
	// outstanding attacker-gateway request and provider escalation.
	reqTok uint64
	escTok uint64
}

// pending is an attacker-gateway handshake awaiting its reply.
type pending struct {
	req      *packet.FilterReq
	nonce    uint64
	deadline sim.Time // absolute handshake timeout, kept for snapshots
	timer    *sim.Event
	tok      uint64 // reliable-send ladder of the verification query
}

// aggregate records one covering prefix filter installed in place of
// its children under table pressure, with the child snapshots needed to
// split them back out.
type aggregate struct {
	label    flow.Label
	children []filter.Entry // labels + deadlines at coalesce time
	exp      sim.Time       // the aggregate filter's deadline
}

// compliance tracks a stop order sent to a client, pending verification
// that the client actually stopped.
type compliance struct {
	label    flow.Label
	client   flow.Addr
	deadline sim.Time
	lastSeen sim.Time
	haveSeen bool
	check    *sim.Event
	tok      uint64 // reliable-send ladder of the stop order
}

// Gateway is an AITF border router: it records routes on transit data
// packets, polices and serves filtering requests, runs handshakes, and
// escalates or disconnects when the attacker side does not cooperate.
type Gateway struct {
	cfg GatewayConfig

	rec *traceback.Recorder
	// dp is the sharded classification engine: the wire-speed filter
	// bank plus the DRAM shadow cache, behind one concurrent fast path.
	dp *dataplane.Engine

	inPolicers  map[flow.Addr]*filter.Policer // keyed by ingress neighbor
	outPolicers map[flow.Addr]*filter.Policer // keyed by client (R2)

	watches    map[flow.Label]*vwatch
	pendings   map[flow.Label]*pending
	compliance map[flow.Label]*compliance

	// aggregates tracks the covering prefix filters this gateway has
	// coalesced sibling filters into, so installs covered by a live
	// aggregate are recognised and the children can be split back out
	// when table pressure subsides.
	aggregates  map[flow.Label]*aggregate
	reviewArmed bool // an aggregate-review event is scheduled

	disconnected map[flow.Addr]sim.Time // neighbor -> blocked until

	// det is the gateway-side sketch detection engine (nil when the
	// gateway defends no legacy clients); protected gates which
	// destinations feed it. With a cluster, detection engines live
	// inside clu (one per logical replica) and det stays nil.
	det       *detect.Engine
	protected map[flow.Addr]bool

	// clu is the gateway-cluster overlay: sharded detection, the
	// replicated filter log, and replica failover (nil when disabled).
	clu *cluster.Cluster

	// msgr is the reliable control messenger (nil = retransmission
	// off); seenTxids dedups retransmitted control messages by
	// (src, txid) so a duplicate delivery never re-runs side effects.
	msgr      *messenger
	seenTxids filter.Dedup
	// halted marks a crashed gateway: every scheduled closure becomes a
	// no-op (see Halt).
	halted bool

	// stats counters are bumped on the data path concurrently with
	// Stats() snapshots; every access must go through sync/atomic
	// (the PR 6 race class, machine-checked by aitf-vet since PR 10).
	stats  GatewayStats // aitf:atomic
	tracer Tracer
	node   *netsim.Node
}

// NewGateway builds a gateway handler; call Attach (or Node.SetHandler
// via Attach) to bind it to a netsim node.
func NewGateway(cfg GatewayConfig) *Gateway {
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = time.Second
	}
	g := &Gateway{
		cfg:          cfg,
		inPolicers:   make(map[flow.Addr]*filter.Policer),
		outPolicers:  make(map[flow.Addr]*filter.Policer),
		watches:      make(map[flow.Label]*vwatch),
		pendings:     make(map[flow.Label]*pending),
		compliance:   make(map[flow.Label]*compliance),
		aggregates:   make(map[flow.Label]*aggregate),
		disconnected: make(map[flow.Addr]sim.Time),
	}
	if cfg.Control.Enabled() {
		g.msgr = newMessenger(g, cfg.Control)
	}
	// The clock closes over the gateway so the engine reads virtual
	// time once the node is attached; classification never happens
	// before Attach.
	g.dp = dataplane.New(dataplane.Config{
		Shards:         cfg.DataplaneShards,
		FilterCapacity: cfg.FilterCapacity,
		ShadowCapacity: cfg.ShadowCapacity,
		Evict:          cfg.Evict,
		ShadowLookup:   cfg.ShadowMode != ShadowOff,
		Clock:          dataplane.ClockFunc(func() filter.Time { return g.now() }),
	})
	if d := cfg.Detection; d != nil && d.Enabled() && len(d.Protected) > 0 {
		g.protected = make(map[flow.Addr]bool, len(d.Protected))
		for _, a := range d.Protected {
			g.protected[a] = true
		}
		if !cfg.Cluster.Enabled() {
			g.det = detect.New(d.Config)
		}
	}
	if cfg.Cluster.Enabled() {
		// The cluster owns the detection engines (one per logical
		// replica, sharing the same config so their summaries merge)
		// and the replicated filter log. With detection unconfigured it
		// still replicates filters and survives replica death.
		det := detect.Config{}
		if d := cfg.Detection; d != nil && len(d.Protected) > 0 {
			det = d.Config
		}
		g.clu = cluster.New(cfg.Cluster, det)
	}
	return g
}

// Detector exposes the gateway-side detection engine (nil when the
// gateway defends no legacy clients).
func (g *Gateway) Detector() *detect.Engine { return g.det }

// Attach binds the gateway to a node and installs it as the node's
// packet handler.
func (g *Gateway) Attach(n *netsim.Node, tr Tracer) {
	g.node = n
	g.tracer = tr
	g.rec = traceback.NewRecorder(n.Addr(), g.cfg.Secret)
	n.SetHandler(g)
	g.armClusterMerge()
}

// Node returns the bound netsim node.
func (g *Gateway) Node() *netsim.Node { return g.node }

// DataPlane exposes the sharded classification engine.
func (g *Gateway) DataPlane() *dataplane.Engine { return g.dp }

// Filters exposes the wire-speed filter bank (for experiments).
func (g *Gateway) Filters() dataplane.TableView { return g.dp.Table() }

// Shadows exposes the DRAM shadow cache (for experiments).
func (g *Gateway) Shadows() dataplane.ShadowView { return g.dp.Shadow() }

// Stats returns a snapshot of the gateway counters. Every counter is
// mutated with atomic adds and read here with atomic loads, so Stats
// is safe to call from any goroutine (an admin scraper) while the
// gateway is classifying — the snapshot is per-field coherent, not a
// cross-field transaction, which is all monitoring needs.
func (g *Gateway) Stats() GatewayStats {
	return GatewayStats{
		DataForwarded:   atomic.LoadUint64(&g.stats.DataForwarded),
		FilterDrops:     atomic.LoadUint64(&g.stats.FilterDrops),
		DisconnectDrops: atomic.LoadUint64(&g.stats.DisconnectDrops),
		SpoofDrops:      atomic.LoadUint64(&g.stats.SpoofDrops),

		ReqReceived:  atomic.LoadUint64(&g.stats.ReqReceived),
		ReqPoliced:   atomic.LoadUint64(&g.stats.ReqPoliced),
		ReqInvalid:   atomic.LoadUint64(&g.stats.ReqInvalid),
		ReqAccepted:  atomic.LoadUint64(&g.stats.ReqAccepted),
		MsgProcessed: atomic.LoadUint64(&g.stats.MsgProcessed),

		HandshakesStarted: atomic.LoadUint64(&g.stats.HandshakesStarted),
		HandshakesOK:      atomic.LoadUint64(&g.stats.HandshakesOK),
		HandshakesFailed:  atomic.LoadUint64(&g.stats.HandshakesFailed),

		StopOrders:     atomic.LoadUint64(&g.stats.StopOrders),
		Escalations:    atomic.LoadUint64(&g.stats.Escalations),
		Disconnects:    atomic.LoadUint64(&g.stats.Disconnects),
		LongBlocks:     atomic.LoadUint64(&g.stats.LongBlocks),
		ShadowReblocks: atomic.LoadUint64(&g.stats.ShadowReblocks),

		Detections: atomic.LoadUint64(&g.stats.Detections),

		Aggregations:             atomic.LoadUint64(&g.stats.Aggregations),
		AggregatedChildren:       atomic.LoadUint64(&g.stats.AggregatedChildren),
		AggregateSplits:          atomic.LoadUint64(&g.stats.AggregateSplits),
		AggregateCovered:         atomic.LoadUint64(&g.stats.AggregateCovered),
		AggregateCollateral:      atomic.LoadUint64(&g.stats.AggregateCollateral),
		AggregateCollateralBytes: atomic.LoadUint64(&g.stats.AggregateCollateralBytes),
		AggregateRefinements:     atomic.LoadUint64(&g.stats.AggregateRefinements),

		CtrlReliableSends: atomic.LoadUint64(&g.stats.CtrlReliableSends),
		CtrlRetransmits:   atomic.LoadUint64(&g.stats.CtrlRetransmits),
		CtrlDupDrops:      atomic.LoadUint64(&g.stats.CtrlDupDrops),
	}
}

// restoreStats loads a snapshot into the live counter block with
// per-field atomic stores (the aitf:atomic contract on g.stats): a
// restore races only with an admin scraper, but a plain struct write
// would still be a data race and is exactly the pattern aitf-vet
// rejects.
func (g *Gateway) restoreStats(s GatewayStats) {
	atomic.StoreUint64(&g.stats.DataForwarded, s.DataForwarded)
	atomic.StoreUint64(&g.stats.FilterDrops, s.FilterDrops)
	atomic.StoreUint64(&g.stats.DisconnectDrops, s.DisconnectDrops)
	atomic.StoreUint64(&g.stats.SpoofDrops, s.SpoofDrops)

	atomic.StoreUint64(&g.stats.ReqReceived, s.ReqReceived)
	atomic.StoreUint64(&g.stats.ReqPoliced, s.ReqPoliced)
	atomic.StoreUint64(&g.stats.ReqInvalid, s.ReqInvalid)
	atomic.StoreUint64(&g.stats.ReqAccepted, s.ReqAccepted)
	atomic.StoreUint64(&g.stats.MsgProcessed, s.MsgProcessed)

	atomic.StoreUint64(&g.stats.HandshakesStarted, s.HandshakesStarted)
	atomic.StoreUint64(&g.stats.HandshakesOK, s.HandshakesOK)
	atomic.StoreUint64(&g.stats.HandshakesFailed, s.HandshakesFailed)

	atomic.StoreUint64(&g.stats.StopOrders, s.StopOrders)
	atomic.StoreUint64(&g.stats.Escalations, s.Escalations)
	atomic.StoreUint64(&g.stats.Disconnects, s.Disconnects)
	atomic.StoreUint64(&g.stats.LongBlocks, s.LongBlocks)
	atomic.StoreUint64(&g.stats.ShadowReblocks, s.ShadowReblocks)

	atomic.StoreUint64(&g.stats.Detections, s.Detections)

	atomic.StoreUint64(&g.stats.Aggregations, s.Aggregations)
	atomic.StoreUint64(&g.stats.AggregatedChildren, s.AggregatedChildren)
	atomic.StoreUint64(&g.stats.AggregateSplits, s.AggregateSplits)
	atomic.StoreUint64(&g.stats.AggregateCovered, s.AggregateCovered)
	atomic.StoreUint64(&g.stats.AggregateCollateral, s.AggregateCollateral)
	atomic.StoreUint64(&g.stats.AggregateCollateralBytes, s.AggregateCollateralBytes)
	atomic.StoreUint64(&g.stats.AggregateRefinements, s.AggregateRefinements)

	atomic.StoreUint64(&g.stats.CtrlReliableSends, s.CtrlReliableSends)
	atomic.StoreUint64(&g.stats.CtrlRetransmits, s.CtrlRetransmits)
	atomic.StoreUint64(&g.stats.CtrlDupDrops, s.CtrlDupDrops)
}

// Config returns the gateway's configuration.
func (g *Gateway) Config() GatewayConfig { return g.cfg }

// Disconnected reports whether traffic from neighbor is currently
// being refused.
func (g *Gateway) Disconnected(neighbor flow.Addr) bool {
	return g.disconnected[neighbor] > g.now()
}

func (g *Gateway) now() sim.Time { return g.node.Engine().Now() }

func (g *Gateway) trace(k EventKind, f flow.Label, detail string) {
	if g.tracer != nil {
		g.tracer(Event{T: g.now(), Node: g.node.Name(), Kind: k, Flow: f, Detail: detail})
	}
}

// rrTuple masks a packet tuple down to the (src, dst) pair that
// route-record nonces bind, matching the pair-granularity of AITF
// filtering requests.
func rrTuple(src, dst flow.Addr) flow.Tuple {
	return flow.Tuple{Src: src, Dst: dst}
}

// contractFor returns the contract governing requests arriving through
// the given neighbor.
func (g *Gateway) contractFor(neighbor flow.Addr) contract.Contract {
	if c, ok := g.cfg.Clients[neighbor]; ok {
		return c
	}
	if c, ok := g.cfg.Peers[neighbor]; ok {
		return c
	}
	return g.cfg.Default
}

func (g *Gateway) inPolicer(neighbor flow.Addr) *filter.Policer {
	p, ok := g.inPolicers[neighbor]
	if !ok {
		c := g.contractFor(neighbor)
		p = filter.NewPolicer(c.R1, c.R1Burst)
		g.inPolicers[neighbor] = p
	}
	return p
}

func (g *Gateway) outPolicer(client flow.Addr) *filter.Policer {
	p, ok := g.outPolicers[client]
	if !ok {
		c := g.contractFor(client)
		p = filter.NewPolicer(c.R2, c.R2Burst)
		g.outPolicers[client] = p
	}
	return p
}

// Receive implements netsim.Handler.
func (g *Gateway) Receive(n *netsim.Node, p *packet.Packet, from *netsim.Iface) {
	now := g.now()
	if from != nil {
		peer := from.Neighbor().Addr()
		if g.disconnected[peer] > now {
			atomic.AddUint64(&g.stats.DisconnectDrops, 1)
			p.Release()
			return
		}
	}
	if p.IsControl() {
		if p.Dst == n.Addr() {
			g.handleControl(p, from)
			return
		}
		n.Forward(p)
		return
	}
	g.handleData(p, from)
}

// dropSpoofed applies ingress filtering (§III-A): spoofed sources from
// clients whose legitimate addresses are known are dropped.
func (g *Gateway) dropSpoofed(p *packet.Packet, from *netsim.Iface) bool {
	if from == nil {
		return false
	}
	valid, ok := g.cfg.IngressValidSrc[from.Neighbor().Addr()]
	if !ok || len(valid) == 0 {
		return false
	}
	for _, a := range valid {
		if p.Src == a {
			return false
		}
	}
	atomic.AddUint64(&g.stats.SpoofDrops, 1)
	return true
}

// handleData is the per-packet data path: ingress filtering,
// classification, protocol liveness bookkeeping, the drop, shadow
// reappearance handling, gateway-side detection, and forwarding with
// route record.
func (g *Gateway) handleData(p *packet.Packet, from *netsim.Iface) {
	if g.dropSpoofed(p, from) {
		p.Release()
		return
	}
	v := g.dp.ClassifyTuple(p.Tuple(), int(p.PayloadLen))
	now := g.now()

	// Track liveness for takeover and compliance decisions before any
	// filtering: a blocked flow must still prove its sender is active.
	// Both maps are keyed by canonical labels, and a pair label is
	// canonical as built.
	pair := flow.PairLabel(p.Src, p.Dst)
	if len(g.watches) > 0 {
		if w, ok := g.watches[pair]; ok {
			w.lastSeen = now
			w.haveSeen = true
			if from != nil {
				w.ingress = from.Neighbor().Addr()
			}
		}
	}
	if len(g.compliance) > 0 {
		if c, ok := g.compliance[pair]; ok {
			if from != nil && from.Neighbor().Addr() == c.client {
				c.lastSeen = now
				c.haveSeen = true
			}
		}
	}

	if v.Drop {
		atomic.AddUint64(&g.stats.FilterDrops, 1)
		p.Release() // the filter bank ate it; recycle the shell
		return
	}

	// Shadow reappearance handling (§II-B): the flow was requested
	// blocked within the last T but no filter is currently installed.
	// The engine recorded the hit; react to it here.
	if v.ShadowHit {
		g.trace(EvShadowHit, v.Shadow.Label, fmt.Sprintf("reappearance %d", v.Shadow.Reappearances))
		if g.cfg.ShadowMode == GatewayAuto {
			if w, ok := g.watches[v.Shadow.Label.Key()]; ok {
				atomic.AddUint64(&g.stats.ShadowReblocks, 1)
				g.reblockAndEscalate(w)
				p.Release() // the triggering packet is dropped too
				return
			}
		}
	}

	// Gateway-side detection: delivered traffic toward a protected
	// legacy client feeds the sketch engine, and a threshold crossing
	// makes this gateway file the filtering request itself. Filtered
	// packets never get here — a blocked flow cannot retrigger
	// detection; its reappearances are the shadow cache's business.
	if g.detectionArmed() && g.protected[p.Dst] {
		if d, ok := g.observeTuple(now, p.Tuple(), int(p.PayloadLen)); ok {
			g.selfDetect(d, p.Path)
		}
	}

	if p.Dst == g.node.Addr() {
		p.Release() // traffic addressed to the router itself is absorbed
		return
	}

	// AITF border routers record the route on transit data packets.
	if len(p.Path) < packet.MaxPathLen {
		p.RecordRoute(g.node.Addr(), g.rec.Nonce(rrTuple(p.Src, p.Dst)))
	}
	if g.node.Forward(p) {
		atomic.AddUint64(&g.stats.DataForwarded, 1)
	}
}

// selfDetect is the gateway-side counterpart of a victim's filtering
// request (§II-C with the gateway playing both victim and victim's
// gateway): the sketch engine flagged an undesired flow toward a
// protected legacy client, so this gateway blocks it and propagates
// the request itself. The evidence is the route record the offending
// packet actually carried, completed with this gateway's own stamp —
// exactly what the client would have presented had it spoken AITF.
// Naming itself as the victim keeps the §II-E handshake sound: the
// attacker-side verification query lands here, where the watch state
// answers it (handleVerifyQuery), rather than at a legacy host that
// would ignore it.
func (g *Gateway) selfDetect(d detect.Detection, path []packet.RREntry) {
	now := g.now()
	label := d.Label.Canonical()
	if w, ok := g.watches[label.Key()]; ok {
		if w.tempUntil > now {
			return // already being blocked; nothing to add
		}
		_, live := g.dp.ShadowGet(label, now)
		if g.cfg.ShadowMode != ShadowOff && live {
			// An on-off reappearance of a flow we already fought:
			// re-block and move the escalation ladder onward instead of
			// restarting at round 1 (the same takeover the victim-driven
			// path performs on a re-request).
			g.dp.ShadowHit(label)
			atomic.AddUint64(&g.stats.ShadowReblocks, 1)
			g.trace(EvShadowHit, label, "gateway re-detection")
			g.reblockAndEscalate(w)
			return
		}
		delete(g.watches, label.Key())
	}
	atomic.AddUint64(&g.stats.Detections, 1)
	g.trace(EvAttackDetected, label, fmt.Sprintf("gateway sketch, est %dB for %v", d.EstBytes, d.Dst))

	evidence := make(traceback.AttackPath, 0, len(path)+1)
	evidence = append(evidence, path...)
	evidence = append(evidence, packet.RREntry{
		Router: g.node.Addr(),
		Nonce:  g.rec.Nonce(rrTuple(label.Src, label.Dst)),
	})
	w := &vwatch{
		label:    label,
		victim:   g.node.Addr(),
		evidence: evidence,
		round:    1,
	}
	g.watches[label.Key()] = w
	g.installTemp(w)
	if g.cfg.ShadowMode != ShadowOff {
		if g.dp.LogShadow(label, g.node.Addr(), now, now+sim.Time(g.cfg.Timers.T)) {
			g.trace(EvShadowLogged, label, "")
		}
	}
	g.sendToAttackerGateway(w)
	g.scheduleTakeoverCheck(w)
	g.scheduleWatchGC(w)
}

func (g *Gateway) handleControl(p *packet.Packet, from *netsim.Iface) {
	atomic.AddUint64(&g.stats.MsgProcessed, 1)
	switch m := p.Msg.(type) {
	case *packet.FilterReq:
		g.handleFilterReq(p, m, from)
	case *packet.VerifyQuery:
		g.handleVerifyQuery(p, m)
	case *packet.VerifyReply:
		g.handleVerifyReply(m)
	case *packet.Disconnect:
		// Informational: our provider cut somebody off.
	}
}

// ── Victim-side behaviour ─────────────────────────────────────────────

func (g *Gateway) handleFilterReq(p *packet.Packet, m *packet.FilterReq, from *netsim.Iface) {
	now := g.now()
	// Retransmission dedup comes first: a duplicate delivery of a
	// reliable send must be wholly side-effect-free — it may not eat a
	// contract-policer token, restart an escalation ladder, or touch any
	// counter other than the dup counter itself.
	if g.seenTxids.Seen(p.Src, m.Txid, now, dedupWindow) {
		atomic.AddUint64(&g.stats.CtrlDupDrops, 1)
		g.trace(EvCtrlDupDrop, m.Flow, fmt.Sprintf("txid %d from %v", m.Txid, p.Src))
		return
	}
	atomic.AddUint64(&g.stats.ReqReceived, 1)
	g.trace(EvRequestReceived, m.Flow, fmt.Sprintf("stage %v round %d from %v", m.Stage, m.Round, p.Src))

	// Contract policing per ingress neighbor (§II-B).
	if from == nil || !g.inPolicer(from.Neighbor().Addr()).Allow(now) {
		atomic.AddUint64(&g.stats.ReqPoliced, 1)
		g.trace(EvRequestPoliced, m.Flow, "over contract rate")
		return
	}

	switch m.Stage {
	case packet.StageToVictimGW:
		g.handleVictimSideRequest(p, m, from)
	case packet.StageToAttackerGW:
		g.handleAttackerSideRequest(p, m, from)
	case packet.StageToAttacker:
		// A provider is ordering this gateway (as a client network) to
		// stop a flow: cooperate by filtering it ourselves and pushing
		// the order further toward the source (§II-D).
		g.handleStopOrder(p, m)
	}
}

// handleVictimSideRequest serves a filtering request from our own
// client: the victim itself, or a downstream gateway escalating.
func (g *Gateway) handleVictimSideRequest(p *packet.Packet, m *packet.FilterReq, from *netsim.Iface) {
	now := g.now()
	label := m.Flow.Canonical()

	// Trivial verification (§II-E): the requester must be the node we
	// route the flow's destination through — i.e. the flow's target is
	// the requester or sits behind it.
	hop := g.node.NextHop(label.Dst)
	if hop == nil || from == nil || hop.Neighbor() != from.Neighbor() {
		atomic.AddUint64(&g.stats.ReqInvalid, 1)
		g.trace(EvRequestInvalid, label, "requester not on path to flow destination")
		return
	}
	if _, isClient := g.cfg.Clients[from.Neighbor().Addr()]; !isClient {
		atomic.AddUint64(&g.stats.ReqInvalid, 1)
		g.trace(EvRequestInvalid, label, "requester is not a client")
		return
	}

	if w, ok := g.watches[label.Key()]; ok {
		if w.tempUntil > now {
			// Duplicate while the temporary filter is still up.
			return
		}
		_, live := g.dp.ShadowGet(label, now)
		if g.cfg.ShadowMode == ShadowOff || !live {
			// No shadow memory (disabled, or the T window lapsed):
			// the request is brand new, not a caught reappearance.
			delete(g.watches, label.Key())
		} else {
			// Reappearance reported by the victim (VictimDriven mode).
			g.dp.ShadowHit(label)
			atomic.AddUint64(&g.stats.ShadowReblocks, 1)
			g.trace(EvShadowHit, label, "victim re-request")
			if len(m.Evidence) > 0 {
				w.evidence = traceback.AttackPath(m.Evidence)
			}
			g.reblockAndEscalate(w)
			return
		}
	}

	// The evidence must carry this gateway's own route-record stamp: a
	// genuine attack packet that reached our client necessarily crossed
	// (and was stamped by) us. This kills fabricated-evidence request
	// floods before they consume any filter.
	evidence := traceback.AttackPath(m.Evidence)
	if !g.rec.Verify(evidence, rrTuple(label.Src, label.Dst)) {
		atomic.AddUint64(&g.stats.ReqInvalid, 1)
		g.trace(EvRequestInvalid, label, "evidence lacks our route-record stamp")
		return
	}
	atomic.AddUint64(&g.stats.ReqAccepted, 1)

	w := &vwatch{
		label:    label,
		victim:   m.Victim,
		evidence: evidence,
		round:    1,
	}
	g.watches[label.Key()] = w
	g.installTemp(w)
	if g.cfg.ShadowMode != ShadowOff {
		if g.dp.LogShadow(label, m.Victim, now, now+sim.Time(g.cfg.Timers.T)) {
			g.trace(EvShadowLogged, label, "")
		}
	}
	g.sendToAttackerGateway(w)
	g.scheduleTakeoverCheck(w)
	g.scheduleWatchGC(w)
}

// scheduleWatchGC arms the periodic reclamation of a watch once both
// its filter and its shadow entry have lapsed and the flow is gone.
func (g *Gateway) scheduleWatchGC(w *vwatch) {
	g.node.Engine().Schedule(
		sim.Time(g.cfg.Timers.T)+sim.Time(g.cfg.Timers.Ttmp),
		func() { g.watchGC(w) })
}

func (g *Gateway) watchGC(w *vwatch) {
	if g.halted {
		return
	}
	now := g.now()
	if g.watches[w.label.Key()] != w {
		return
	}
	_, live := g.dp.ShadowGet(w.label, now)
	recentlySeen := w.haveSeen && now-w.lastSeen < sim.Time(g.cfg.Timers.T)
	if w.tempUntil > now || live || recentlySeen {
		g.scheduleWatchGC(w)
		return
	}
	delete(g.watches, w.label.Key())
	g.dp.ExpireShadows(now)
	g.dp.Expire(now)
}

// installTemp (re)installs the temporary filter for Ttmp (§II-C i).
func (g *Gateway) installTemp(w *vwatch) {
	now := g.now()
	exp := now + sim.Time(g.cfg.Timers.Ttmp)
	if err := g.installVictimFilter(w.label, now, exp); err != nil {
		g.trace(EvFilterRejected, w.label, err.Error())
		return
	}
	w.tempUntil = exp
	w.installedAt = now
	g.trace(EvTempFilterInstalled, w.label, fmt.Sprintf("until %v", exp))
}

// installVictimFilter installs a victim-side filter, falling back to
// the §IV aggregation policy when the wire-speed table is full: if a
// live aggregate already covers the label it is refreshed instead of
// spending a slot, and on ErrTableFull the gateway installs the
// allocator's cheapest covering prefix filters and retries once.
func (g *Gateway) installVictimFilter(label flow.Label, now, exp sim.Time) error {
	if g.cfg.Allocation != nil {
		if a := g.coveringAggregate(label); a != nil {
			// Extend the aggregate so it covers the requested window;
			// the flow is already being dropped. Record the would-be
			// filter as a child so a later split-back reinstalls it —
			// otherwise deaggregation would silently unblock this flow
			// before its requested window ends.
			if err := g.dp.Install(a.label, now, exp); err == nil {
				if exp > a.exp {
					a.exp = exp
				}
				key := label.Key()
				seen := false
				for i := range a.children {
					if a.children[i].Label == key {
						if exp > a.children[i].ExpiresAt {
							a.children[i].ExpiresAt = exp
						}
						seen = true
						break
					}
				}
				if !seen {
					a.children = append(a.children,
						filter.Entry{Label: key, InstalledAt: now, ExpiresAt: exp})
				}
				atomic.AddUint64(&g.stats.AggregateCovered, 1)
				g.clusterRecord(cluster.OpInstall, label, exp)
				return nil
			}
		}
	}
	err := g.dp.Install(label, now, exp)
	if err == nil {
		g.clusterRecord(cluster.OpInstall, label, exp)
		return nil
	}
	if !errors.Is(err, filter.ErrTableFull) || g.cfg.Allocation == nil || !g.allocateUnderPressure(now) {
		return err
	}
	if err := g.dp.Install(label, now, exp); err != nil {
		return err
	}
	g.clusterRecord(cluster.OpInstall, label, exp)
	return nil
}

// allocConfig materialises the allocator configuration for this
// gateway: the deployable policy plus the live traffic view (the
// gateway-side detection engine, when armed).
func (g *Gateway) allocConfig(policy alloc.Policy) alloc.Config {
	cfg := alloc.Config{Policy: policy}
	if g.clu != nil && g.protected != nil {
		// The cluster is the traffic view: the union of the alive
		// replicas' disjoint shards.
		cfg.Traffic = g.clu
		cfg.WindowSeconds = g.clu.DetectionWindow().Seconds()
	} else if g.det != nil {
		cfg.Traffic = alloc.DetectTraffic{Eng: g.det}
		cfg.WindowSeconds = g.det.Config().Window.Seconds()
	}
	return cfg
}

// coveringAggregate returns the live aggregate covering label, if any.
func (g *Gateway) coveringAggregate(label flow.Label) *aggregate {
	now := g.now()
	for _, a := range g.aggregates {
		if a.exp > now && a.label.Covers(label) {
			return a
		}
	}
	return nil
}

// allocateUnderPressure asks the allocator for the aggregate set that
// frees a slot at minimum estimated collateral legit bytes and installs
// it, reporting whether any slot was freed. Under a one-rung policy
// with no traffic view every candidate prices alike, so the pick is the
// largest sibling group at that length.
func (g *Gateway) allocateUnderPressure(now sim.Time) bool {
	cfg := g.allocConfig(*g.cfg.Allocation)
	plan := alloc.Choose(g.dp.FilterEntries(), 1, cfg)
	freed := false
	for _, pick := range plan.Picks {
		if g.applyPick(pick, now) {
			freed = true
		}
	}
	if freed {
		g.armAggregateReview()
	}
	return freed
}

// applyPick installs one allocator pick: the covering filter replaces
// its children in the data plane, the gateway's aggregate records are
// merged (absorbing any nested aggregate the pick folds), and the
// collateral accounting is updated.
func (g *Gateway) applyPick(pick alloc.Candidate, now sim.Time) bool {
	replaced, err := g.dp.Aggregate(pick.Aggregate, pick.ChildLabels(), now, pick.MaxExpiry)
	if err != nil || replaced < 2 {
		return false
	}
	g.recordAggregate(pick)
	atomic.AddUint64(&g.stats.Aggregations, 1)
	atomic.AddUint64(&g.stats.AggregatedChildren, uint64(replaced))
	// Port-distinct exact children can outnumber the covered sources;
	// collateral exposure never goes below zero.
	if c := pick.CoveredAddrs() - replaced; c > 0 {
		atomic.AddUint64(&g.stats.AggregateCollateral, uint64(c))
	}
	atomic.AddUint64(&g.stats.AggregateCollateralBytes, uint64(pick.LegitBytes))
	g.trace(EvAggregated, pick.Aggregate,
		fmt.Sprintf("%d children, covers %d sources, est %dB/window collateral",
			replaced, pick.CoveredAddrs(), uint64(pick.LegitBytes)))
	g.clusterRecord(cluster.OpAggregate, pick.Aggregate, pick.MaxExpiry)
	return true
}

// recordAggregate merges one installed pick into the gateway's
// aggregate records. A pick that folded a nested aggregate absorbs its
// recorded children, so a later split-back still restores every
// original pair filter.
func (g *Gateway) recordAggregate(pick alloc.Candidate) *aggregate {
	key := pick.Aggregate.Key()
	a, ok := g.aggregates[key]
	if !ok {
		a = &aggregate{label: key}
		g.aggregates[key] = a
	}
	for _, c := range pick.Children {
		ck := c.Label.Key()
		if inner, ok := g.aggregates[ck]; ok && ck != key {
			a.children = append(a.children, inner.children...)
			if inner.exp > a.exp {
				a.exp = inner.exp
			}
			delete(g.aggregates, ck)
			continue
		}
		a.children = append(a.children, c)
	}
	if pick.MaxExpiry > a.exp {
		a.exp = pick.MaxExpiry
	}
	return a
}

// armAggregateReview schedules the periodic split-back check while any
// aggregate is outstanding.
func (g *Gateway) armAggregateReview() {
	if g.reviewArmed {
		return
	}
	g.reviewArmed = true
	g.node.Engine().Schedule(sim.Time(g.cfg.Timers.Ttmp), func() { g.aggregateReview() })
}

// aggregateReview reclaims expired aggregates and — when the table has
// room again — splits an aggregate back into its still-live children,
// restoring filter precision (and with it, zero collateral damage).
func (g *Gateway) aggregateReview() {
	if g.halted {
		return
	}
	g.reviewArmed = false
	now := g.now()
	// Deterministic order: the simulator's fingerprints hash the trace.
	keys := make([]flow.Label, 0, len(g.aggregates))
	for k := range g.aggregates {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	refined := false
	for _, k := range keys {
		a, ok := g.aggregates[k]
		if !ok {
			continue // consumed by an earlier refinement this tick
		}
		if a.exp <= now {
			delete(g.aggregates, k)
			g.trace(EvDeaggregated, a.label, "expired with its last child")
			continue
		}
		live := a.children[:0]
		for _, c := range a.children {
			if c.ExpiresAt > now {
				live = append(live, c)
			}
		}
		a.children = live
		// Split back only when the freed precision fits comfortably:
		// the children need len(live)−1 net slots, and we keep a
		// quarter of the table as headroom for fresh requests.
		need := len(live) - 1
		room := g.cfg.FilterCapacity - g.cfg.FilterCapacity/4 - g.dp.Len()
		if need >= 0 && need <= room {
			// Remove the aggregate before reinstalling the children.
			// The review runs atomically within one simulator event, so
			// nothing slips through the gap — whereas install-first
			// transiently needed len(live)+1 slots, which overflows a
			// small table (capacity < 4 keeps no headroom quarter) and
			// silently rejected a child before its deadline.
			g.dp.Remove(a.label)
			g.clusterRecord(cluster.OpRemove, a.label, 0)
			for _, c := range live {
				if err := g.dp.Install(c.Label, now, c.ExpiresAt); err != nil {
					g.trace(EvFilterRejected, c.Label, "split-back: "+err.Error())
					continue
				}
				g.clusterRecord(cluster.OpInstall, c.Label, c.ExpiresAt)
			}
			delete(g.aggregates, k)
			atomic.AddUint64(&g.stats.AggregateSplits, 1)
			g.trace(EvDeaggregated, a.label, fmt.Sprintf("split back %d children", len(live)))
			continue
		}
		// Full precision does not fit. Adapt to the shifting attack mix
		// instead of waiting: re-plan this aggregate's children at
		// strictly deeper policy rungs, spending the spare room on
		// precision (at most one aggregate per tick to bound review
		// work). A one-rung policy has no deeper rung and just waits.
		if g.cfg.Allocation != nil && !refined {
			refined = g.refineAggregate(k, a, live, now, room)
		}
	}
	if len(g.aggregates) > 0 {
		g.armAggregateReview()
	}
}

// refineAggregate replaces one live aggregate with a deeper, cheaper
// cover chosen by the allocator over its recorded children, plus exact
// filters for the children the deeper cover leaves out. It fires only
// when the re-plan fits the spare room and strictly shrinks the
// covered address space, so each refinement monotonically reduces
// collateral exposure.
func (g *Gateway) refineAggregate(k flow.Label, a *aggregate, live []filter.Entry, now sim.Time, room int) bool {
	if len(live) < 2 || room < 1 {
		return false
	}
	var lens []uint8
	for _, l := range g.cfg.Allocation.Lens() {
		if l > a.label.SrcPrefixLen {
			lens = append(lens, l)
		}
	}
	if len(lens) == 0 {
		return false
	}
	cfg := g.allocConfig(alloc.Policy{
		PrefixLens:  lens,
		MinChildren: g.cfg.Allocation.MinChildren,
	})
	// The replacement set may occupy this aggregate's slot plus the
	// spare room: len(live) − freed ≤ 1 + room.
	requiredFreed := len(live) - 1 - room
	if requiredFreed < 1 {
		requiredFreed = 1
	}
	plan := alloc.Choose(live, requiredFreed, cfg)
	if plan.Freed < requiredFreed || len(plan.Picks) == 0 {
		return false
	}
	current := filter.SiblingGroup{Aggregate: a.label}
	uncovered := len(live) - (plan.Freed + len(plan.Picks))
	// Subtract rather than add: plan.CoveredAddrs may sit at the
	// math.MaxInt clamp, where adding would wrap on 32-bit platforms.
	if plan.CoveredAddrs >= current.CoveredAddrs()-uncovered {
		return false // no precision gained
	}
	g.dp.Remove(a.label)
	g.clusterRecord(cluster.OpRemove, a.label, 0)
	delete(g.aggregates, k)
	covered := make(map[flow.Label]bool)
	for _, pick := range plan.Picks {
		if _, err := g.dp.Aggregate(pick.Aggregate, pick.ChildLabels(), now, pick.MaxExpiry); err != nil {
			g.trace(EvFilterRejected, pick.Aggregate, "refine: "+err.Error())
			continue
		}
		g.recordAggregate(pick)
		g.clusterRecord(cluster.OpAggregate, pick.Aggregate, pick.MaxExpiry)
		for _, c := range pick.Children {
			covered[c.Label.Key()] = true
		}
		atomic.AddUint64(&g.stats.AggregateCollateralBytes, uint64(pick.LegitBytes))
		g.trace(EvAggregated, pick.Aggregate,
			fmt.Sprintf("refined: %d children, covers %d sources, est %dB/window collateral",
				len(pick.Children), pick.CoveredAddrs(), uint64(pick.LegitBytes)))
	}
	// Children the deeper cover leaves out go back to exact filters at
	// their original deadlines — never past them.
	for _, c := range live {
		if covered[c.Label.Key()] {
			continue
		}
		if err := g.dp.Install(c.Label, now, c.ExpiresAt); err != nil {
			g.trace(EvFilterRejected, c.Label, "refine split: "+err.Error())
			continue
		}
		g.clusterRecord(cluster.OpInstall, c.Label, c.ExpiresAt)
	}
	atomic.AddUint64(&g.stats.AggregateRefinements, 1)
	g.trace(EvDeaggregated, a.label,
		fmt.Sprintf("refined into %d deeper aggregates", len(plan.Picks)))
	return true
}

// sendToAttackerGateway propagates the request to the attack-path node
// this gateway is responsible for (§II-C iii), determined by mirroring
// the gateway's own position on the recorded path.
func (g *Gateway) sendToAttackerGateway(w *vwatch) {
	target, err := g.roundTarget(w)
	if err != nil {
		// No attacker-side node left for us; resolve locally.
		g.resolveExhausted(w)
		return
	}
	// A new round supersedes any ladder still running for the old one.
	g.cancelReliable(w.reqTok)
	round := uint8(min(w.round, 255))
	g.trace(EvRequestSent, w.label, fmt.Sprintf("to attacker-gw %v round %d", target, w.round))
	w.reqTok = g.reliableSend(w.label, func(txid uint64) *packet.Packet {
		return packet.NewControl(g.node.Addr(), target, &packet.FilterReq{
			Stage:    packet.StageToAttackerGW,
			Flow:     w.label,
			Duration: g.cfg.Timers.T,
			Round:    round,
			Victim:   w.victim,
			Evidence: append([]packet.RREntry(nil), w.evidence...),
			Txid:     txid,
		})
	})
}

// roundTarget computes the attacker-side node this gateway addresses:
// the mirror of its own position on the recorded path. The victim's
// gateway (last on the path) targets the attacker's gateway (first);
// the k-th victim-side router targets the k-th attacker-side router.
func (g *Gateway) roundTarget(w *vwatch) (flow.Addr, error) {
	idx := w.evidence.IndexOf(g.node.Addr())
	if idx < 0 {
		return 0, traceback.ErrNotOnPath
	}
	i := len(w.evidence) - 1 - idx
	if i >= idx {
		return 0, traceback.ErrRoundTooHigh
	}
	return w.evidence[i].Router, nil
}

// scheduleTakeoverCheck arms the Ttmp deadline: if the flow is still
// arriving when the temporary filter is about to lapse, the attacker's
// gateway did not take over and we escalate (§II-C iii).
func (g *Gateway) scheduleTakeoverCheck(w *vwatch) {
	if w.check != nil {
		w.check.Cancel()
	}
	installedAt := w.installedAt
	w.check = g.node.Engine().Schedule(sim.Time(g.cfg.Timers.Ttmp), func() {
		g.takeoverCheck(w, installedAt)
	})
}

func (g *Gateway) takeoverCheck(w *vwatch, installedAt sim.Time) {
	if g.halted {
		return
	}
	if w.installedAt != installedAt {
		return // superseded by a re-install
	}
	quiet := installedAt + sim.Time(g.cfg.Timers.Ttmp) - sim.Time(g.cfg.Timers.Grace)
	if !w.haveSeen || w.lastSeen <= quiet {
		// Flow went quiet: the attacker side (apparently) took over.
		// The temporary filter lapses; the shadow keeps watching — and
		// any request ladders still retransmitting have served their
		// purpose.
		g.cancelReliable(w.reqTok)
		g.cancelReliable(w.escTok)
		w.reqTok, w.escTok = 0, 0
		g.trace(EvTakeoverOK, w.label, "flow stopped before Ttmp")
		return
	}
	// Still flowing through us: this round failed.
	g.reblockAndEscalate(w)
}

// reblockAndEscalate re-installs the temporary filter and moves the
// mechanism one round onward: via our provider when we have one,
// directly to the next attack-path node when we are the top gateway.
func (g *Gateway) reblockAndEscalate(w *vwatch) {
	w.round++
	atomic.AddUint64(&g.stats.Escalations, 1)
	g.trace(EvEscalated, w.label, fmt.Sprintf("round %d", w.round))
	g.installTemp(w)
	g.scheduleTakeoverCheck(w)
	// Refresh the shadow for another T from now.
	if g.cfg.ShadowMode != ShadowOff {
		now := g.now()
		g.dp.LogShadow(w.label, w.victim, now, now+sim.Time(g.cfg.Timers.T))
	}
	if g.cfg.Provider != 0 {
		g.cancelReliable(w.escTok)
		round := uint8(min(w.round, 255))
		g.trace(EvRequestSent, w.label, fmt.Sprintf("escalate to provider %v round %d", g.cfg.Provider, w.round))
		w.escTok = g.reliableSend(w.label, func(txid uint64) *packet.Packet {
			return packet.NewControl(g.node.Addr(), g.cfg.Provider, &packet.FilterReq{
				Stage:    packet.StageToVictimGW,
				Flow:     w.label,
				Duration: g.cfg.Timers.T,
				Round:    round,
				Victim:   g.node.Addr(), // we now play the victim (§II-B)
				Evidence: append([]packet.RREntry(nil), w.evidence...),
				Txid:     txid,
			})
		})
		return
	}
	g.resolveExhausted(w)
}

// resolveExhausted handles the end of the escalation ladder at a
// top-level gateway: disconnect the peer the flow arrives through if
// it is an AITF peer (§II-D worst case), otherwise hold a long-lived
// filter ourselves.
func (g *Gateway) resolveExhausted(w *vwatch) {
	now := g.now()
	if !w.haveSeen {
		// We have never observed this flow; do not spend a long-lived
		// filter (or a disconnection) on hearsay.
		return
	}
	if w.ingress != 0 {
		if _, isPeer := g.cfg.Peers[w.ingress]; isPeer {
			g.disconnect(w.ingress, w.label)
			return
		}
	}
	exp := now + sim.Time(g.cfg.Timers.T)
	if err := g.installVictimFilter(w.label, now, exp); err != nil {
		g.trace(EvFilterRejected, w.label, err.Error())
		return
	}
	w.tempUntil = exp
	w.installedAt = now
	atomic.AddUint64(&g.stats.LongBlocks, 1)
	g.trace(EvLongBlock, w.label, "no cooperative attacker-side gateway; filtering locally for T")
}

func (g *Gateway) disconnect(neighbor flow.Addr, label flow.Label) {
	now := g.now()
	g.disconnected[neighbor] = now + sim.Time(g.cfg.Timers.Penalty)
	atomic.AddUint64(&g.stats.Disconnects, 1)
	g.trace(EvDisconnected, label, fmt.Sprintf("neighbor %v for %v", neighbor, g.cfg.Timers.Penalty))
	g.node.Originate(packet.NewControl(g.node.Addr(), neighbor, &packet.Disconnect{
		Client:  neighbor,
		Flow:    label,
		Penalty: g.cfg.Timers.Penalty,
	}))
}

// ── Attacker-side behaviour ───────────────────────────────────────────

// handleAttackerSideRequest serves a request claiming we are the
// attacker's gateway: verify with the 3-way handshake, then filter.
func (g *Gateway) handleAttackerSideRequest(p *packet.Packet, m *packet.FilterReq, from *netsim.Iface) {
	label := m.Flow.Canonical()
	if !g.cfg.Cooperative {
		// The non-cooperating gateway of §IV-A.1: silently ignores.
		return
	}
	// The evidence must prove the flow really crossed this router: our
	// own route-record stamp with a valid authenticator (the
	// traceback substitution).
	if !g.rec.Verify(m.Evidence, rrTuple(label.Src, label.Dst)) {
		atomic.AddUint64(&g.stats.ReqInvalid, 1)
		g.trace(EvRequestInvalid, label, "no valid route-record stamp for this router")
		return
	}
	if prev, ok := g.pendings[label.Key()]; ok {
		// A newer request supersedes the in-flight handshake; the old
		// one can never succeed now (its nonce is about to be replaced),
		// so close its books as a failure. Without this, every
		// supersession leaked one started-but-never-resolved handshake
		// and HandshakesStarted drifted away from OK+Failed.
		prev.timer.Cancel()
		g.cancelReliable(prev.tok)
		delete(g.pendings, label.Key())
		atomic.AddUint64(&g.stats.HandshakesFailed, 1)
		g.trace(EvHandshakeFailed, label, "superseded by a newer request")
	}
	now := g.now()
	nonce := g.node.Engine().Rand().Uint64()
	pend := &pending{req: m, nonce: nonce, deadline: now + sim.Time(g.cfg.HandshakeTimeout)}
	g.pendings[label.Key()] = pend
	atomic.AddUint64(&g.stats.HandshakesStarted, 1)
	g.trace(EvHandshakeQuery, label, fmt.Sprintf("to victim %v", m.Victim))
	victim := m.Victim
	mflow := m.Flow
	pend.tok = g.reliableSend(label, func(uint64) *packet.Packet {
		// The nonce itself is the dedup key here: duplicate queries get
		// duplicate (idempotent) replies, so no txid is needed.
		return packet.NewControl(g.node.Addr(), victim,
			&packet.VerifyQuery{Flow: mflow, Nonce: nonce})
	})
	pend.timer = g.node.Engine().Schedule(sim.Time(g.cfg.HandshakeTimeout), func() {
		if g.pendings[label.Key()] == pend {
			delete(g.pendings, label.Key())
			g.cancelReliable(pend.tok)
			atomic.AddUint64(&g.stats.HandshakesFailed, 1)
			g.trace(EvHandshakeFailed, label, "verification query timed out")
		}
	})
}

// handleVerifyQuery answers handshakes addressed to this gateway when
// it is itself the (escalating) victim of the flow in question.
func (g *Gateway) handleVerifyQuery(p *packet.Packet, m *packet.VerifyQuery) {
	label := m.Flow.Canonical()
	w, ok := g.watches[label.Key()]
	if !ok {
		if _, ok := g.dp.ShadowGet(label, g.now()); !ok {
			return // we never asked for this flow to be blocked
		}
	}
	if w != nil {
		// The query is implicit proof our request reached the attacker
		// side: stop retransmitting it.
		g.cancelReliable(w.reqTok)
		w.reqTok = 0
	}
	g.trace(EvHandshakeReply, label, fmt.Sprintf("to %v", p.Src))
	src, mflow, nonce := p.Src, m.Flow, m.Nonce
	g.reliableReply(label, func() *packet.Packet {
		return packet.NewControl(g.node.Addr(), src,
			&packet.VerifyReply{Flow: mflow, Nonce: nonce})
	})
}

// handleVerifyReply completes the handshake: install the T filter and
// order the client to stop (§II-C, attacker's gateway).
func (g *Gateway) handleVerifyReply(m *packet.VerifyReply) {
	now := g.now()
	label := m.Flow.Canonical()
	pend, ok := g.pendings[label.Key()]
	if !ok || pend.nonce != m.Nonce {
		return // stale, duplicate, unsolicited, or forged reply
	}
	pend.timer.Cancel()
	g.cancelReliable(pend.tok)
	delete(g.pendings, label.Key())
	atomic.AddUint64(&g.stats.HandshakesOK, 1)
	atomic.AddUint64(&g.stats.ReqAccepted, 1)
	g.trace(EvHandshakeOK, label, "")

	exp := now + sim.Time(g.cfg.Timers.T)
	if err := g.dp.Install(label, now, exp); err != nil {
		g.trace(EvFilterRejected, label, err.Error())
		return
	}
	g.trace(EvFilterInstalled, label, fmt.Sprintf("for %v", g.cfg.Timers.T))
	g.clusterRecord(cluster.OpInstall, label, exp)
	g.node.Engine().Schedule(sim.Time(g.cfg.Timers.T), func() { g.dp.Expire(g.now()) })

	g.orderClientToStop(label)
}

// orderClientToStop propagates the request toward the attacker: to the
// attacking host when it is our client, or to the downstream client
// network it sits behind (§II-C ii, §II-D).
func (g *Gateway) orderClientToStop(label flow.Label) {
	now := g.now()
	hop := g.node.NextHop(label.Src)
	if hop == nil {
		return // source unroutable (e.g. spoofed): our filter suffices
	}
	client := hop.Neighbor().Addr()
	if !g.outPolicer(client).Allow(now) {
		// Beyond the R2 contract rate we may not burden the client;
		// our own filter keeps blocking regardless (§IV-C).
		return
	}
	atomic.AddUint64(&g.stats.StopOrders, 1)
	g.trace(EvStopOrder, label, fmt.Sprintf("to %v", client))

	comp := &compliance{
		label:    label,
		client:   client,
		deadline: now + sim.Time(g.cfg.Timers.Grace),
	}
	g.compliance[label.Key()] = comp
	comp.tok = g.reliableSend(label, func(txid uint64) *packet.Packet {
		return packet.NewControl(g.node.Addr(), client, &packet.FilterReq{
			Stage:    packet.StageToAttacker,
			Flow:     label,
			Duration: g.cfg.Timers.T,
			Victim:   g.node.Addr(),
			Txid:     txid,
		})
	})
	comp.check = g.node.Engine().Schedule(
		2*sim.Time(g.cfg.Timers.Grace), func() { g.complianceCheck(comp) })
}

func (g *Gateway) complianceCheck(c *compliance) {
	if g.halted {
		return
	}
	if g.compliance[c.label.Key()] != c {
		return
	}
	g.cancelReliable(c.tok)
	delete(g.compliance, c.label.Key())
	if c.haveSeen && c.lastSeen > c.deadline {
		// Client kept sending past the grace period: disconnect (§II-C).
		g.disconnect(c.client, c.label)
		return
	}
	g.trace(EvFlowStopped, c.label, fmt.Sprintf("client %v complied", c.client))
}

// handleStopOrder handles a provider's order to stop a flow sourced in
// our network: filter it and push the order toward the source.
func (g *Gateway) handleStopOrder(p *packet.Packet, m *packet.FilterReq) {
	if !g.cfg.Cooperative {
		return // non-cooperating networks ignore orders (§II-D) — and pay
	}
	// Only our own provider may order us around.
	if g.cfg.Provider == 0 || p.Src != g.cfg.Provider {
		atomic.AddUint64(&g.stats.ReqInvalid, 1)
		g.trace(EvRequestInvalid, m.Flow, "stop order not from provider")
		return
	}
	now := g.now()
	label := m.Flow.Canonical()
	exp := now + sim.Time(g.cfg.Timers.T)
	if err := g.dp.Install(label, now, exp); err != nil {
		g.trace(EvFilterRejected, label, err.Error())
		return
	}
	g.trace(EvFilterInstalled, label, "stop order from provider")
	g.clusterRecord(cluster.OpInstall, label, exp)
	g.orderClientToStop(label)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
