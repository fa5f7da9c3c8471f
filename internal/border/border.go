// Package border is the AITF border router's control plane, written
// once and free of any runtime. It polices and verifies filtering
// requests (§II-B, §II-E). As the victim's gateway it installs a
// temporary filter, logs a shadow and relays the request (§II-C). As
// the attacker's gateway it runs the 3-way handshake, installs the
// filter and orders the attacker to stop (§II-C). It escalates or
// disconnects when the attacker side does not cooperate (§II-D). An
// Engine reads time and arms timers only through its ctrl.Clock and
// reaches the network only through its Env funcs; core.Gateway is its
// netsim adapter and keeps the per-packet data half.
//
// A new Engine holds only what the data path reads on every packet:
// its config, its counters and its route-record recorder. The control
// half (the filter bank and shadow log, the aggregator, the
// retransmission ladder, the handshake ledger, the detection plane and
// the policer, watch, compliance and disconnection maps) is built on
// the first call that writes to it, so a router that never handles a
// control message never pays for it. Until then every read reports
// what an empty engine would: zero counters, empty tables, nothing
// pending. An engine whose detection plane is armed builds it all at
// New, because that plane observes from the first packet and arms its
// merge round at once.
package border

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/ctrl"
	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/durable"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
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

// Config configures one AITF border router.
type Config struct {
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
	// unanswered for this long rejects the request. 0 means a second.
	HandshakeTimeout time.Duration
	// Clients lists each directly attached client (end-host or
	// downstream gateway), once, with its filtering contract. New keeps
	// them ordered by address, sorting a copy when they are not.
	Clients []Client
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
	// Allocation enables the §IV fallback to coarser filters
	// (alloc.Aggregator): when the wire-speed table cannot hold a
	// victim-side filter, the cheapest sibling set by estimated
	// collateral legit bytes is coalesced into covering prefix filters,
	// split back or refined every Ttmp as the pressure subsides. A fixed
	// /24 fallback is the policy {PrefixLens: [24]}; nil disables
	// aggregation (the hardware-faithful reject-only behaviour).
	Allocation *alloc.Policy
	// Detection, when non-nil and armed, runs a sketch-based
	// heavy-hitter engine (internal/detect) on the gateway's own data
	// path on behalf of the listed legacy clients, which cannot file
	// their own filtering requests: on a detection the gateway plays
	// the victim itself.
	Detection *Detection
	// Control configures the reliable control plane (ctrl.Config):
	// bounded, jittered retransmission of this gateway's protocol sends.
	// The zero value disables it — every send is single-shot.
	Control ctrl.Config
	// Cluster, when enabled (Replicas >= 2), runs this gateway as k
	// logical replicas behind its detection plane (cluster.Plane), so a
	// replica crash is a failover, not a re-detection from zero.
	Cluster cluster.Config
}

// Client is one directly attached client and its filtering contract.
type Client struct {
	Addr     flow.Addr
	Contract contract.Contract
}

// byAddr orders clients by address.
func byAddr(a, b Client) int { return cmp.Compare(a.Addr, b.Addr) }

// client returns the contract of the client at a, if a is one.
func (c *Config) client(a flow.Addr) (contract.Contract, bool) {
	i, ok := slices.BinarySearchFunc(c.Clients, Client{Addr: a}, byAddr)
	if !ok {
		return contract.Contract{}, false
	}
	return c.Clients[i].Contract, true
}

// Detection configures gateway-side detection on behalf of legacy
// (non-AITF) hosts behind this gateway.
type Detection struct {
	detect.Config
	// Protected lists the destinations the gateway defends; only
	// traffic addressed to one of them is observed.
	Protected []flow.Addr
}

// DefaultConfig returns a cooperative gateway provisioned per the
// paper's worked examples. Its Clients and Peers are nil: assign them
// before adding contracts.
func DefaultConfig() Config {
	tm := contract.DefaultTimers()
	eh := contract.DefaultEndHost()
	return Config{
		Timers:           tm,
		FilterCapacity:   contract.VictimGatewayFilters(eh.R1, tm.Ttmp) + contract.AttackerGatewayFilters(eh.R2, tm.T),
		ShadowCapacity:   contract.VictimGatewayShadows(eh.R1, tm.T),
		Evict:            filter.RejectNew,
		ShadowMode:       VictimDriven,
		Cooperative:      true,
		HandshakeTimeout: time.Second,
		Default:          contract.DefaultPeer(),
	}
}

// Stats aggregates protocol counters for experiments.
type Stats struct {
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

	// Aggregation under filter-table pressure (§IV fallback): the
	// alloc.AggregateStats counters, field for field, kept flat so the
	// scenario fingerprint's rendering of Stats does not move.
	Aggregations             uint64
	AggregatedChildren       uint64
	AggregateSplits          uint64
	AggregateCovered         uint64
	AggregateCollateral      uint64
	AggregateCollateralBytes uint64
	AggregateRefinements     uint64

	// Reliable control plane (fault tolerance): the ctrl.Ladder counters
	// and the receive path's txid dedup drops.
	CtrlReliableSends uint64 // logical sends handed to the ladder
	CtrlRetransmits   uint64 // extra attempts beyond each first transmission
	CtrlDupDrops      uint64 // duplicate deliveries suppressed by txid dedup
}

// Env is an Engine's runtime. The Clock must serialise its timer
// callbacks with every other call into the Engine but Stats.
type Env struct {
	Addr  flow.Addr // this router: the source of its sends, its route-record stamp
	Clock ctrl.Clock
	// Rand draws the handshake nonces and the retransmission jitter;
	// pass the runtime's seeded source so runs replay.
	Rand *rand.Rand
	Send func(*packet.Packet) // transmits a control packet
	// NextHop names the neighbor a packet to dst leaves through.
	NextHop func(dst flow.Addr) (neighbor flow.Addr, ok bool)
	// Trace receives the protocol events; nil records none, and then
	// no event detail is formatted.
	Trace ctrl.Trace
}

// Watch is the persisted state of one undesired flow for which this
// gateway acts (or acted) as a victim-side gateway.
type Watch struct {
	Label       flow.Label
	Victim      flow.Addr // requester this round's handshake is answered for
	Evidence    traceback.AttackPath
	Ingress     flow.Addr // neighbor the flow last arrived through
	Round       int
	LastSeen    time.Duration
	HaveSeen    bool
	TempUntil   time.Duration
	InstalledAt time.Duration
}

type watch struct {
	Watch
	// checkTimer is the pending takeover check, armed for the temporary
	// filter installed at checkFor. check and gc, its callback and the
	// reclamation timer's, are bound once when the watch is made.
	checkTimer sim.Timer
	checkFor   time.Duration
	check, gc  func()
	// reqTok/escTok cancel the reliable-send ladders for this watch's
	// outstanding attacker-gateway request and provider escalation.
	reqTok, escTok uint64
}

// Compliance is the persisted state of one stop order sent to a
// client, pending verification that the client actually stopped.
type Compliance struct {
	Label    flow.Label
	Client   flow.Addr
	Deadline time.Duration // end of the client's grace period
	LastSeen time.Duration
	HaveSeen bool
}

type compliance struct {
	Compliance
	tok uint64 // reliable-send ladder of the stop order
}

// policerKey names a contract policer: R1 on the requests arriving
// through a neighbor, or R2 (out) on the stop orders sent to a client.
type policerKey struct {
	neighbor flow.Addr
	out      bool
}

// Engine is one border router's control state. Every method but Stats
// must be serialised with the Clock's callbacks.
type Engine struct {
	// stats counters are bumped on the data path concurrently with
	// Stats() snapshots; every access must go through sync/atomic
	// (aitf-vet's atomicfield check enforces it). They come first: on a
	// 32-bit platform only the first word of an allocated struct is
	// sure to be 64-bit aligned, which sync/atomic needs.
	stats Stats // aitf:atomic

	cfg Config // as given to New
	env Env

	rec *traceback.Recorder

	// The control half: nil until build, which makes all of it at once.
	//
	// dp is the sharded classification engine: the wire-speed filter
	// bank plus the DRAM shadow cache, behind one concurrent fast path.
	dp       *dataplane.Engine
	policers map[policerKey]*filter.Policer

	watches      map[flow.Label]*watch
	compliance   map[flow.Label]*compliance
	disconnected map[flow.Addr]time.Duration // neighbor -> blocked until

	// agg runs the §IV fallback on victim-side installs: covering
	// aggregates, allocation under pressure, split-back and refinement.
	agg   *alloc.Aggregator
	plane *cluster.Plane // the detection plane: engine or cluster

	// ladder retransmits protocol sends (single-shot when Control is
	// off); hs holds the attacker-side handshakes; seenTxids dedups
	// retransmitted control messages by (src, txid) so a duplicate
	// delivery never re-runs side effects.
	ladder    *ctrl.Ladder
	hs        *ctrl.Ledger
	seenTxids filter.Dedup

	// built is set once build has run. One rule reads the unbuilt
	// state: every read of the control half from outside the data path
	// (Stats, the views, the plane's accessors, Snapshot, Halt) tests
	// built, which lets Stats run beside the call that builds; the
	// per-packet calls Classify and Observe, serialised with Control,
	// test the one pointer they need.
	built atomic.Bool // aitf:atomic
	// halted marks a crashed gateway: every control timer's callback
	// opens with the halt gate, and fires as a no-op (see Halt). The
	// table expiries (expireFilters) alone run on.
	halted bool
	// traced is whether env.Trace listens; without it, New puts a no-op
	// in its place and no event detail is formatted.
	traced bool

	// The engine's own timer callbacks, bound once by build: the cluster
	// merge round and the filter table's expiry.
	merge, expire func()
}

// New builds an engine for the router env.Addr. With gateway-side
// detection or a cluster configured it builds the control half too and
// arms the cluster merge round, if there is one.
func New(cfg Config, env Env) *Engine {
	if !slices.IsSortedFunc(cfg.Clients, byAddr) {
		cfg.Clients = slices.Clone(cfg.Clients)
		slices.SortStableFunc(cfg.Clients, byAddr)
	}
	e := &Engine{cfg: cfg, env: env, rec: traceback.NewRecorder(env.Addr, cfg.Secret), traced: env.Trace != nil}
	if !e.traced {
		e.env.Trace = func(obs.EventKind, flow.Label, string) {}
	}
	if cfg.Detection != nil || cfg.Cluster.Enabled() {
		e.build()
		e.armClusterMerge()
	}
	return e
}

// build makes the control half unless it exists. No constructor here
// arms a timer or draws from env.Rand, so when it runs moves neither
// the event order nor the seeded draws.
func (e *Engine) build() {
	if e.built.Load() {
		return
	}
	cfg, env := &e.cfg, &e.env
	e.policers = make(map[policerKey]*filter.Policer)
	e.watches = make(map[flow.Label]*watch)
	e.compliance = make(map[flow.Label]*compliance)
	e.disconnected = make(map[flow.Addr]time.Duration)
	hsTimeout := cfg.HandshakeTimeout
	if hsTimeout <= 0 {
		hsTimeout = time.Second
	}
	var trace ctrl.Trace // nil unless traced, so ctrl formats nothing
	if e.traced {
		trace = env.Trace
	}
	e.ladder = ctrl.NewLadder(cfg.Control, env.Clock, env.Rand.Float64, env.Send, trace)
	e.hs = ctrl.NewLedger(e.ladder, env.Clock, hsTimeout, trace)
	e.dp = dataplane.New(dataplane.Config{
		Shards:         cfg.DataplaneShards,
		FilterCapacity: cfg.FilterCapacity,
		ShadowCapacity: cfg.ShadowCapacity,
		Evict:          cfg.Evict,
		ShadowLookup:   cfg.ShadowMode != ShadowOff,
		Clock:          env.Clock,
	})
	d := cfg.Detection
	if d == nil {
		d = &Detection{}
	}
	e.plane = cluster.NewPlane(d.Config, d.Protected, cfg.Cluster, env.Trace)
	e.agg = alloc.NewAggregator(e.dp, cfg.Allocation, e.plane, env.Trace, env.Clock, cfg.Timers.Ttmp)
	e.merge, e.expire = e.mergeRound, e.expireFilters
	e.built.Store(true)
}

// Config returns the configuration the engine was built with.
func (e *Engine) Config() Config { return e.cfg }

// Filters and Shadows are read views of the filter bank and the shadow
// log; they build nothing, and read as empty before the first build.
func (e *Engine) Filters() dataplane.TableView {
	if !e.built.Load() {
		return dataplane.TableView{}
	}
	return e.dp.Table()
}

func (e *Engine) Shadows() dataplane.ShadowView {
	if !e.built.Load() {
		return dataplane.ShadowView{}
	}
	return e.dp.Shadow()
}

// Cluster exposes the detection plane's cluster overlay (nil when
// disabled); KillReplica kills one logical replica of the cluster now.
// Before the control half is built the plane is unarmed: nil and no
// replica to kill.
func (e *Engine) Cluster() *cluster.Cluster {
	if !e.built.Load() {
		return nil
	}
	return e.plane.Cluster()
}

func (e *Engine) KillReplica(id int) (inherited, lost int, ok bool) {
	if !e.built.Load() {
		return 0, 0, false
	}
	return e.plane.KillReplica(id, e.now())
}

// OutstandingReliable returns how many reliable sends still await an
// ack or their final attempt; every ladder terminates, so it drains.
func (e *Engine) OutstandingReliable() int {
	if !e.built.Load() {
		return 0
	}
	return e.ladder.Outstanding()
}

// PendingHandshakes returns the attacker-side handshakes awaiting their
// reply: HandshakesStarted == HandshakesOK + HandshakesFailed + pending.
func (e *Engine) PendingHandshakes() int {
	if !e.built.Load() {
		return 0
	}
	return e.hs.Pending()
}

// Disconnected reports whether traffic from neighbor is refused at now.
func (e *Engine) Disconnected(neighbor flow.Addr, now time.Duration) bool {
	return e.disconnected[neighbor] > now
}

// ── The data half's calls ─────────────────────────────────────────────

// Refuses is Disconnected for a packet arriving at now, counting its
// drop.
func (e *Engine) Refuses(neighbor flow.Addr, now time.Duration) bool {
	if e.Disconnected(neighbor, now) {
		atomic.AddUint64(&e.stats.DisconnectDrops, 1)
		return true
	}
	return false
}

// Spoofed applies ingress filtering (§III-A) to a packet from src
// arriving through neighbor (0 when locally originated): a client whose
// legitimate sources are listed may send from no other. It counts the
// drop of a spoofed packet.
func (e *Engine) Spoofed(src, neighbor flow.Addr) bool {
	if neighbor == 0 {
		return false
	}
	valid := e.cfg.IngressValidSrc[neighbor]
	if len(valid) == 0 || slices.Contains(valid, src) {
		return false
	}
	atomic.AddUint64(&e.stats.SpoofDrops, 1)
	return true
}

// Classify is the filter bank's verdict on a data packet; before the
// tables are built it passes everything.
//
// aitf:noalloc
func (e *Engine) Classify(tup flow.Tuple, payloadBytes int) dataplane.Verdict {
	if e.dp == nil {
		return dataplane.Verdict{}
	}
	return e.dp.ClassifyTuple(tup, payloadBytes)
}

// CountFilterDrop and CountForwarded bump the data half's counters.
func (e *Engine) CountFilterDrop() { atomic.AddUint64(&e.stats.FilterDrops, 1) }
func (e *Engine) CountForwarded()  { atomic.AddUint64(&e.stats.DataForwarded, 1) }

// RouteNonce is the route-record authenticator this router stamps on a
// data packet from src to dst.
func (e *Engine) RouteNonce(src, dst flow.Addr) uint64 { return e.rec.Nonce(rrTuple(src, dst)) }

// Seen tracks liveness for takeover and compliance decisions before
// any filtering: a data packet of pair (canonical as built) arrived
// through neighbor (0 when locally originated) at now, and a blocked
// flow must still prove its sender is active. With nothing watched it
// is two length tests.
func (e *Engine) Seen(pair flow.Label, neighbor flow.Addr, now time.Duration) {
	if len(e.watches) > 0 || len(e.compliance) > 0 {
		e.seen(pair, neighbor, now)
	}
}

func (e *Engine) seen(pair flow.Label, neighbor flow.Addr, now time.Duration) {
	if w, ok := e.watches[pair]; ok {
		w.LastSeen, w.HaveSeen = now, true
		if neighbor != 0 {
			w.Ingress = neighbor
		}
	}
	if c, ok := e.compliance[pair]; ok && neighbor == c.Client {
		c.LastSeen, c.HaveSeen = now, true
	}
}

// Reappeared reacts to a data packet the shadow cache caught (§II-B):
// the flow was requested blocked within the last T but no filter is
// installed. Under GatewayAuto a watched flow is re-blocked and
// escalated at once, and the packet is to be dropped (true).
func (e *Engine) Reappeared(s filter.ShadowEntry) bool {
	if e.traced {
		e.env.Trace(obs.EvShadowHit, s.Label, fmt.Sprintf("reappearance %d", s.Reappearances))
	}
	if e.cfg.ShadowMode != GatewayAuto {
		return false
	}
	w, ok := e.watches[s.Label.Key()]
	if ok {
		atomic.AddUint64(&e.stats.ShadowReblocks, 1)
		e.reblockAndEscalate(w)
	}
	return ok
}

// Observe is gateway-side detection: delivered traffic toward a
// protected legacy client feeds the detection plane, and a threshold
// crossing makes this gateway file the filtering request itself.
// Filtered packets never get here — a blocked flow cannot retrigger
// detection; its reappearances are the shadow cache's business.
func (e *Engine) Observe(now time.Duration, p *packet.Packet) {
	if e.plane != nil && e.plane.Protects(p.Dst) {
		e.selfDetect(now, p)
	}
}

func (e *Engine) now() time.Duration { return e.env.Clock.Now() }

// armClusterMerge schedules the recurring merge round; each firing
// re-arms the next, and a halted engine lets the chain die.
func (e *Engine) armClusterMerge() {
	if every := e.plane.MergeEvery(); every > 0 {
		e.env.Clock.Arm(every, e.merge)
	}
}

func (e *Engine) mergeRound() {
	if e.halted {
		return
	}
	e.plane.MergeRound(e.now())
	e.armClusterMerge()
}

// expireFilters drops the filters whose time is up.
func (e *Engine) expireFilters() { e.dp.Expire(e.now()) }

// newWatch makes the live form of a watch, its callbacks bound.
func (e *Engine) newWatch(ws Watch) *watch {
	w := &watch{Watch: ws}
	w.check = func() { e.takeoverCheck(w) }
	w.gc = func() { e.watchGC(w) }
	return w
}

// rrTuple masks a packet tuple down to the (src, dst) pair that
// route-record nonces bind, matching the pair-granularity of AITF
// filtering requests.
func rrTuple(src, dst flow.Addr) flow.Tuple {
	return flow.Tuple{Src: src, Dst: dst}
}

// policer returns the contract policer of neighbor: R1 on the requests
// arriving through it, or R2 (out) on the stop orders sent to it. The
// contract is the neighbor's as a client, else as a peer, else Default.
func (e *Engine) policer(neighbor flow.Addr, out bool) *filter.Policer {
	k := policerKey{neighbor, out}
	p, ok := e.policers[k]
	if !ok {
		c, ok := e.cfg.client(neighbor)
		if !ok {
			if c, ok = e.cfg.Peers[neighbor]; !ok {
				c = e.cfg.Default
			}
		}
		if out {
			p = filter.NewPolicer(c.R2, c.R2Burst)
		} else {
			p = filter.NewPolicer(c.R1, c.R1Burst)
		}
		e.policers[k] = p
	}
	return p
}

// Stats returns a snapshot of the counters. Every counter is mutated
// with atomic adds and read here with atomic loads, so Stats is safe
// to call from any goroutine (an admin scraper) while the gateway is
// classifying — the snapshot is per-field coherent, not a cross-field
// transaction, which is all monitoring needs.
func (e *Engine) Stats() Stats {
	var (
		a alloc.AggregateStats
		l ctrl.Stats
		h ctrl.LedgerStats
	)
	if e.built.Load() {
		a, l, h = e.agg.Stats(), e.ladder.Stats(), e.hs.Stats()
	}
	return Stats{
		DataForwarded:   atomic.LoadUint64(&e.stats.DataForwarded),
		FilterDrops:     atomic.LoadUint64(&e.stats.FilterDrops),
		DisconnectDrops: atomic.LoadUint64(&e.stats.DisconnectDrops),
		SpoofDrops:      atomic.LoadUint64(&e.stats.SpoofDrops),

		ReqReceived:  atomic.LoadUint64(&e.stats.ReqReceived),
		ReqPoliced:   atomic.LoadUint64(&e.stats.ReqPoliced),
		ReqInvalid:   atomic.LoadUint64(&e.stats.ReqInvalid),
		ReqAccepted:  atomic.LoadUint64(&e.stats.ReqAccepted),
		MsgProcessed: atomic.LoadUint64(&e.stats.MsgProcessed),

		HandshakesStarted: h.Started,
		HandshakesOK:      h.OK,
		HandshakesFailed:  h.Failed,

		StopOrders:     atomic.LoadUint64(&e.stats.StopOrders),
		Escalations:    atomic.LoadUint64(&e.stats.Escalations),
		Disconnects:    atomic.LoadUint64(&e.stats.Disconnects),
		LongBlocks:     atomic.LoadUint64(&e.stats.LongBlocks),
		ShadowReblocks: atomic.LoadUint64(&e.stats.ShadowReblocks),

		Detections: atomic.LoadUint64(&e.stats.Detections),

		Aggregations:             a.Aggregations,
		AggregatedChildren:       a.AggregatedChildren,
		AggregateSplits:          a.Splits,
		AggregateCovered:         a.Covered,
		AggregateCollateral:      a.Collateral,
		AggregateCollateralBytes: a.CollateralBytes,
		AggregateRefinements:     a.Refinements,

		CtrlReliableSends: l.ReliableSends,
		CtrlRetransmits:   l.Retransmits,
		CtrlDupDrops:      atomic.LoadUint64(&e.stats.CtrlDupDrops),
	}
}

// restoreStats loads a snapshot into the live counter block with
// per-field atomic stores (the aitf:atomic contract on e.stats): a
// restore races only with an admin scraper, but a plain struct write
// would still be a data race and is exactly the pattern aitf-vet
// rejects.
func (e *Engine) restoreStats(s Stats) {
	atomic.StoreUint64(&e.stats.DataForwarded, s.DataForwarded)
	atomic.StoreUint64(&e.stats.FilterDrops, s.FilterDrops)
	atomic.StoreUint64(&e.stats.DisconnectDrops, s.DisconnectDrops)
	atomic.StoreUint64(&e.stats.SpoofDrops, s.SpoofDrops)

	atomic.StoreUint64(&e.stats.ReqReceived, s.ReqReceived)
	atomic.StoreUint64(&e.stats.ReqPoliced, s.ReqPoliced)
	atomic.StoreUint64(&e.stats.ReqInvalid, s.ReqInvalid)
	atomic.StoreUint64(&e.stats.ReqAccepted, s.ReqAccepted)
	atomic.StoreUint64(&e.stats.MsgProcessed, s.MsgProcessed)

	e.hs.RestoreStats(ctrl.LedgerStats{Started: s.HandshakesStarted, OK: s.HandshakesOK, Failed: s.HandshakesFailed})

	atomic.StoreUint64(&e.stats.StopOrders, s.StopOrders)
	atomic.StoreUint64(&e.stats.Escalations, s.Escalations)
	atomic.StoreUint64(&e.stats.Disconnects, s.Disconnects)
	atomic.StoreUint64(&e.stats.LongBlocks, s.LongBlocks)
	atomic.StoreUint64(&e.stats.ShadowReblocks, s.ShadowReblocks)

	atomic.StoreUint64(&e.stats.Detections, s.Detections)

	e.agg.RestoreStats(alloc.AggregateStats{
		Aggregations:       s.Aggregations,
		AggregatedChildren: s.AggregatedChildren,
		Splits:             s.AggregateSplits,
		Covered:            s.AggregateCovered,
		Collateral:         s.AggregateCollateral,
		CollateralBytes:    s.AggregateCollateralBytes,
		Refinements:        s.AggregateRefinements,
	})

	e.ladder.RestoreStats(ctrl.Stats{ReliableSends: s.CtrlReliableSends, Retransmits: s.CtrlRetransmits})
	atomic.StoreUint64(&e.stats.CtrlDupDrops, s.CtrlDupDrops)
}

// ── Snapshot and restore: the crash-survival path ─────────────────────

// Snapshot is a point-in-time serialization of an engine's durable
// protocol state, every time absolute on its clock.
type Snapshot struct {
	durable.State
	Stats        Stats
	Watches      []Watch
	Compliance   []Compliance
	Disconnected map[flow.Addr]time.Duration // neighbor -> penalty end
}

func labelLess(a, b flow.Label) bool { return a.String() < b.String() }

// parts are the owners of the engine's shared durable state.
func (e *Engine) parts() durable.Parts {
	return durable.Parts{DP: e.dp, Ladder: e.ladder, Ledger: e.hs, Agg: e.agg, Plane: e.plane}
}

// Snapshot captures the engine's durable state. Output ordering is
// deterministic (sorted by label), so snapshotting inside a seeded
// simulation does not perturb replay fingerprints.
func (e *Engine) Snapshot() *Snapshot {
	now := e.now()
	snap := &Snapshot{State: durable.State{TakenAt: now}, Stats: e.Stats(),
		Disconnected: maps.Clone(e.disconnected)}
	if e.built.Load() {
		snap.State = durable.Capture(now, e.parts())
	}
	for _, w := range e.watches {
		ws := w.Watch
		ws.Evidence = slices.Clone(ws.Evidence)
		snap.Watches = append(snap.Watches, ws)
	}
	sort.Slice(snap.Watches, func(i, j int) bool { return labelLess(snap.Watches[i].Label, snap.Watches[j].Label) })
	for _, c := range e.compliance {
		snap.Compliance = append(snap.Compliance, c.Compliance)
	}
	sort.Slice(snap.Compliance, func(i, j int) bool { return labelLess(snap.Compliance[i].Label, snap.Compliance[j].Label) })
	return snap
}

// Halt freezes the control plane: the halt gate turns every control
// timer's callback into a no-op, and the retransmission ladders and
// handshake timeouts stop. It models the protocol half of a crash — take
// Snapshot first if the state should survive.
func (e *Engine) Halt() {
	e.halted = true
	if e.built.Load() {
		e.hs.StopAll()
		e.ladder.StopAll()
		e.agg.Halt()
	}
}

// Restore rebuilds snapshotted state into this engine, which must be
// fresh. Every timer re-arms at its original absolute deadline (one
// already past fires at once); entries whose deadlines lapsed while
// the gateway was down are not resurrected. Counters continue from the
// snapshot, so accounting balances (handshakes started vs resolved)
// survive the crash.
func (e *Engine) Restore(snap *Snapshot) {
	e.build()
	now := e.now()
	e.restoreStats(snap.Stats)
	snap.RestoreTables(e.parts(), now, func(ent filter.Entry, err error) {
		if err != nil {
			e.env.Trace(obs.EvFilterRejected, ent.Label, "restore: "+err.Error())
			return
		}
		e.env.Clock.Arm(ent.ExpiresAt-now, e.expire)
	})

	for _, ws := range snap.Watches {
		w := e.newWatch(ws)
		e.watches[w.Label.Key()] = w
		if w.TempUntil > now {
			// The temporary filter is still up: re-arm the takeover
			// check at its original Ttmp deadline.
			e.armTakeoverCheck(w, w.InstalledAt+e.cfg.Timers.Ttmp-now)
		}
		e.scheduleWatchGC(w)
	}

	snap.RestorePending(e.parts(), now)

	for _, cs := range snap.Compliance {
		c := &compliance{Compliance: cs}
		e.compliance[cs.Label.Key()] = c
		e.armComplianceCheck(c, cs.Deadline+e.cfg.Timers.Grace-now)
	}

	e.agg.ArmReview()

	for n, until := range snap.Disconnected {
		if until > now {
			e.disconnected[n] = until
		}
	}
	e.env.Trace(obs.EvGatewayRestored, flow.Label{}, "state restored from snapshot")
}
