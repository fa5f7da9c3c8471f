package wire

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/ctrl"
	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/traceback"
	crand "crypto/rand"
	"encoding/binary"
	mrand "math/rand"
)

// epoch anchors the wire runtime's monotonic clock; filter deadlines
// are durations since process start, matching the simulator's types.
var epoch = time.Now()

func wallNow() sim.Time { return time.Since(epoch) }

func randNonce() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for a security nonce.
		panic("wire: crypto/rand: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:])
}

// GatewayConfig configures a wire-mode AITF border router.
type GatewayConfig struct {
	Node NodeConfig
	// Timers are the protocol constants; wire demos use sub-second
	// values so a round completes quickly.
	Timers contract.Timers
	// FilterCapacity and ShadowCapacity bound the two pools.
	FilterCapacity, ShadowCapacity int
	// Clients maps directly served client addresses to contracts.
	Clients map[flow.Addr]contract.Contract
	// Default is the contract for requests from unlisted peers.
	Default contract.Contract
	// Secret keys the route-record authenticator.
	Secret []byte
	// HandshakeTimeout bounds the verification handshake.
	HandshakeTimeout time.Duration
	// Trace receives structured protocol events: milestones (temp
	// filter installs, handshakes, stop orders) are recorded into its
	// ring buffer and logged at Info through its slog logger; chattier
	// diagnostics go to the logger at Debug. nil records nothing and
	// logs through slog.Default() (quiet at the default Info level).
	Trace *obs.Trace
	// DataplaneShards partitions the classification engine; 0 picks
	// GOMAXPROCS (rounded up to a power of two by the engine).
	DataplaneShards int
	// Allocation enables the §IV filter-table-pressure fallback, the
	// simulator's alloc.Aggregator: a victim-side install a live
	// aggregate covers refreshes it; one rejected for capacity installs
	// the cheapest cover (priced by the detection sketch or cluster when
	// armed) and retries; every Ttmp aggregates split back or refine as
	// the pressure eases. A fixed /24 fallback is the one-rung policy
	// {PrefixLens: [24]}. nil disables aggregation.
	Allocation *alloc.Policy
	// Detect configures the gateway-side sketch detection engine
	// (internal/detect); armed only when ThresholdBps > 0 and
	// DetectFor is non-empty.
	Detect detect.Config
	// DetectFor lists the legacy (non-AITF) client destinations this
	// gateway defends: traffic addressed to them is observed, and on a
	// detection the gateway files the filtering request itself, naming
	// itself as the victim so it can answer the §II-E handshake.
	DetectFor []flow.Addr
	// Cluster, when enabled (Replicas >= 2), runs this gateway as k
	// logical replicas behind its detection plane (cluster.Plane):
	// sharded detection, merge rounds and a replicated filter log. The
	// zero value keeps the single-engine gateway.
	Cluster cluster.Config
	// Control configures the shared reliable control plane (ctrl.Config),
	// the simulator's rules on real timers. The zero value sends every
	// control message exactly once; with MaxAttempts > 1 each logical
	// send carries a txid and is retransmitted on an exponential-backoff
	// ladder, jittered by ±Jitter, until cancelled (a handshake reply) or
	// the attempts run out, and receivers drop txid duplicates without
	// re-running side effects.
	Control ctrl.Config
	// SnapshotPath, when non-empty, names the file the gateway writes
	// its durable state to on Close (snapshot-on-drain) and restores
	// from on boot via RestoreFromDisk (restore-on-boot), so a daemon
	// restart mid-attack keeps filtering.
	SnapshotPath string
}

// Gateway is the wire-mode border router: it stamps route records on
// transit data, polices filtering requests, verifies them with the
// 3-way handshake, filters, and orders attackers to stop (§II-C).
type Gateway struct {
	mu   sync.Mutex
	cfg  GatewayConfig
	node *Node
	rec  *traceback.Recorder

	// dp is the sharded classification engine (wire-speed filter bank +
	// shadow cache).
	dp *dataplane.Engine

	policers map[flow.Addr]*filter.Policer

	// clock is the gateway's timer queue; its driver fires every
	// callback under mu. merge, the cluster merge round's, is bound once.
	clock *clock
	merge func()

	// plane is the detection plane; it locks itself, so the receive
	// goroutine feeds it without g.mu.
	plane *cluster.Plane

	// agg runs the §IV fallback on victim-side installs, the same
	// lifecycle as the simulator's, review timer included. Under mu.
	agg *alloc.Aggregator

	// The reliable control plane, all under mu: ladder retransmits
	// protocol sends, hs holds the attacker-side handshakes, and dedup
	// remembers recently seen (source, txid) pairs. tx is the read
	// batch the packet being handled came in, for the span of that
	// handling, so that the ladder's sends join the batch's flush; it
	// is nil otherwise, and a send from a timer leaves at once.
	ladder *ctrl.Ladder
	hs     *ctrl.Ledger
	dedup  filter.Dedup
	tx     *sockBatch

	// stats holds the control-plane counters, mutated under mu. Its
	// data-plane fields are the two atomics below: the receive goroutine
	// counts those without g.mu while an admin scraper reads them. Typed
	// atomics align themselves; a plain uint64 at a 4-byte offset on a
	// 32-bit target makes atomic.AddUint64 panic.
	stats                   GatewayStats
	filterDrops, shadowHits atomic.Uint64 // aitf:atomic
}

// maxPolicers bounds the per-neighbor request policers. Their key is
// the packet's previous hop, which a spoofer chooses, so at the bound
// one arbitrary policer is dropped before each new one. A dropped key
// comes back with a full bucket, which a spoofer already gets for every
// forged key: the bound hands an attacker nothing new.
const maxPolicers = 4096

// NewGateway binds the gateway's socket.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = time.Second
	}
	if cfg.FilterCapacity <= 0 {
		cfg.FilterCapacity = 1024
	}
	if cfg.ShadowCapacity <= 0 {
		cfg.ShadowCapacity = 65536
	}
	if cfg.DataplaneShards <= 0 {
		cfg.DataplaneShards = runtime.GOMAXPROCS(0)
	}
	n, err := NewNode(cfg.Node)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:      cfg,
		node:     n,
		rec:      traceback.NewRecorder(cfg.Node.Addr, cfg.Secret),
		policers: make(map[flow.Addr]*filter.Policer),
	}
	g.clock = newClock(&g.mu)
	g.merge = g.mergeRound
	var trace ctrl.Trace // nil without a trace: ctrl formats no detail
	if g.tracing() {
		trace = g.event
	}
	// A private seeded source jitters the backoff only; protocol nonces
	// still come from crypto/rand (randNonce).
	g.ladder = ctrl.NewLadder(cfg.Control, g.clock, mrand.New(mrand.NewSource(int64(randNonce()))).Float64, g.transmit, trace)
	g.hs = ctrl.NewLedger(g.ladder, g.clock, cfg.HandshakeTimeout, trace)
	g.dp = dataplane.New(dataplane.Config{
		Shards:         cfg.DataplaneShards,
		FilterCapacity: cfg.FilterCapacity,
		ShadowCapacity: cfg.ShadowCapacity,
		Evict:          filter.RejectNew,
		ShadowLookup:   true,
		Clock:          dataplane.WallClock(epoch),
	})
	g.plane = cluster.NewPlane(cfg.Detect, cfg.DetectFor, cfg.Cluster, g.event)
	g.agg = alloc.NewAggregator(g.dp, cfg.Allocation, g.plane, g.event, g.clock, cfg.Timers.Ttmp)
	n.SetHandler(g)
	g.mu.Lock()
	g.armClusterMerge()
	g.mu.Unlock()
	return g, nil
}

// transmit originates one control packet, queued on g.tx while a read
// batch is being handled and sent at once otherwise. Either way it is
// marshalled synchronously, so the shell is recycled on return. Called
// under mu.
func (g *Gateway) transmit(p *packet.Packet) {
	if err := g.node.originate(p, g.tx); err != nil {
		g.logf("control send: %v", err)
	}
	p.Release()
}

// Detector exposes the gateway-side detection engine (nil when off or
// clustered).
func (g *Gateway) Detector() *detect.Engine { return g.plane.Engine() }

// Node exposes the transport (for books and addresses).
func (g *Gateway) Node() *Node { return g.node }

// Run starts the gateway.
func (g *Gateway) Run() { g.node.Run() }

// Close stops the timers, none of which fires once it returns, and the
// socket; with a SnapshotPath configured it then writes the drain
// snapshot, the quiescent post-drain state the next boot restores.
func (g *Gateway) Close() error {
	g.clock.Close()
	err := g.node.Close()
	if g.cfg.SnapshotPath != "" {
		if serr := g.SaveToDisk(); err == nil {
			err = serr
		}
	}
	return err
}

// DataPlane exposes the classification engine.
func (g *Gateway) DataPlane() *dataplane.Engine { return g.dp }

// Filters exposes the filter bank for inspection.
func (g *Gateway) Filters() dataplane.TableView { return g.dp.Table() }

// logf emits a Debug-level diagnostic through the trace logger. The
// enabled check keeps the Sprintf off every call when debug logging is
// off (the default).
func (g *Gateway) logf(format string, args ...any) {
	if l := g.cfg.Trace.Logger(); l.Enabled(context.Background(), slog.LevelDebug) {
		l.Debug(fmt.Sprintf(format, args...), "node", g.node.Name())
	}
}

// tracing reports whether protocol milestones are recorded at all. Call
// sites that format an event's detail check it first: with no trace
// configured the strings would be built, on every control message, for
// nobody.
func (g *Gateway) tracing() bool { return g.cfg.Trace != nil }

// event records a protocol milestone: into the trace ring always, and
// as an Info-level structured log line when enabled. It is a no-op
// without a trace.
func (g *Gateway) event(kind obs.EventKind, label flow.Label, detail string) {
	if g.tracing() {
		g.cfg.Trace.Info(obs.Record{At: wallNow(), Node: g.node.Name(), Kind: kind, Flow: label, Detail: detail})
	}
}

func (g *Gateway) policer(peer flow.Addr) *filter.Policer {
	p, ok := g.policers[peer]
	if !ok {
		c, isClient := g.cfg.Clients[peer]
		if !isClient {
			c = g.cfg.Default
		}
		p = filter.NewPolicer(c.R1, c.R1Burst)
		if len(g.policers) >= maxPolicers {
			for k := range g.policers {
				delete(g.policers, k)
				g.stats.PolicerEvicted++
				break
			}
		}
		g.policers[peer] = p
	}
	return p
}

// Handle implements Handler. Control packets take the gateway lock;
// data packets take the concurrent data-plane fast path inline on the
// calling goroutine. Whatever either sends leaves at once.
func (g *Gateway) Handle(n *Node, p *packet.Packet, from flow.Addr) {
	if p.IsControl() {
		g.control(n, p, from, nil)
		return
	}
	g.finishData(p, g.dp.ClassifyTuple(p.Tuple(), int(p.PayloadLen)), nil)
}

// control handles one control packet under mu: the gateway's own, or
// one in transit. With tx non-nil every send it makes is queued on tx
// for the caller to flush. Control handling is synchronous and retains
// at most p.Msg (which Release does not recycle) and copies of its
// fields, so the shell goes back to the pool on return; a send marshals
// before returning.
func (g *Gateway) control(n *Node, p *packet.Packet, from flow.Addr, tx *sockBatch) {
	g.mu.Lock()
	g.tx = tx
	if p.Dst == n.Addr() {
		g.handleControl(p, from)
	} else if err := n.forward(p, tx); err != nil {
		g.logf("forward control: %v", err)
	}
	g.tx = nil
	g.mu.Unlock()
	p.Release()
}

// handleBatch implements batchHandler: Handle over everything one
// read-loop wakeup took from the socket, in arrival order, with every
// send queued on tx and one flush at the end. Each run of data packets
// is classified with one ClassifyInto and its forwards queued before
// the control packet behind it is looked at: a filter that packet
// installs cannot catch up with, and nothing it sends can overtake, the
// data that arrived ahead of it.
//
// aitf:noalloc
func (g *Gateway) handleBatch(n *Node, pkts []*packet.Packet, tx *sockBatch) {
	var verdicts [batchSlots]dataplane.Verdict
	for len(pkts) > 0 {
		run := 0
		for run < len(pkts) && !pkts[run].IsControl() {
			run++
		}
		if run == 0 {
			g.control(n, pkts[0], prevHop(pkts[0]), tx)
			pkts = pkts[1:]
			continue
		}
		for i, v := range g.dp.ClassifyInto(pkts[:run], verdicts[:0]) {
			g.finishData(pkts[i], v, tx)
		}
		pkts = pkts[run:]
	}
	if err := n.flush(tx); err != nil {
		g.logSendErr(err)
	}
}

// finishData completes the data path for a classified packet. It runs
// on the receive goroutine and must not take the gateway lock. The
// gateway owns data packets decoded by its read loop, so every terminal
// outcome releases the shell back to the packet pool (forward marshals
// synchronously; nothing retains p). With tx non-nil the forward, and
// any request a detection sends, are queued on it for the caller to
// flush.
//
// aitf:noalloc
func (g *Gateway) finishData(p *packet.Packet, v dataplane.Verdict, tx *sockBatch) {
	if v.Drop {
		g.filterDrops.Add(1)
		p.Release()
		return
	}
	if v.ShadowHit {
		// An "on-off" flow reappeared within T of being filtered; count
		// it (the wire runtime's single round has no escalation ladder).
		g.shadowHits.Add(1)
	}
	// Gateway-side detection: delivered traffic toward a protected
	// legacy client feeds the detection plane (internally synchronized,
	// so it needs no g.mu); a crossing makes this gateway file the
	// filtering request itself. Taking g.mu on the rare detection-fired
	// path is safe — finishData is never invoked with the lock held.
	if g.plane.Protects(p.Dst) {
		if d, ok := g.plane.Observe(wallNow(), p.Tuple(), int(p.PayloadLen)); ok {
			g.selfDetect(d, p.Path, tx)
		}
	}
	if p.Dst == g.node.Addr() {
		p.Release()
		return
	}
	if len(p.Path) < packet.MaxPathLen {
		p.RecordRoute(g.node.Addr(), g.rec.Nonce(flow.Tuple{Src: p.Src, Dst: p.Dst}))
	}
	if err := g.node.forward(p, tx); err != nil {
		g.logSendErr(err)
	}
	p.Release()
}

// logSendErr keeps the data path's only formatting call out of the
// functions held to aitf:noalloc.
func (g *Gateway) logSendErr(err error) { g.logf("send: %v", err) }

func (g *Gateway) handleControl(p *packet.Packet, from flow.Addr) {
	switch m := p.Msg.(type) {
	case *packet.FilterReq:
		g.handleFilterReq(p, m, from)
	case *packet.VerifyQuery:
		g.handleVerifyQuery(p, m)
	case *packet.VerifyReply:
		g.handleVerifyReply(m)
	}
}

// handleVerifyQuery answers §II-E verification queries for flows this
// gateway itself asked to have blocked on a legacy client's behalf:
// the shadow log is the gateway's "I really requested this" memory,
// exactly as a victim host's wanted-set is. Called under mu.
func (g *Gateway) handleVerifyQuery(p *packet.Packet, m *packet.VerifyQuery) {
	if !g.plane.Defends() {
		return // never a self-requesting victim: stay silent
	}
	label := m.Flow.Canonical()
	if _, live := g.dp.ShadowGet(label, wallNow()); !live {
		return
	}
	if g.tracing() {
		g.event(obs.EvHandshakeReply, label, "to attacker gw "+p.Src.String())
	}
	gw, querier, mflow, nonce := g.node.Addr(), p.Src, m.Flow, m.Nonce
	g.ladder.SendBlind(label, func(uint64) *packet.Packet {
		// Replies dedup by nonce at the querier; a duplicate is a no-op.
		return packet.NewControl(gw, querier,
			&packet.VerifyReply{Flow: mflow, Nonce: nonce})
	})
}

// selfDetect files the filtering request a protected legacy client
// cannot file itself: temporary filter, shadow log, and the relay to
// the attacker's gateway with the evidence the offending packet
// carried, completed by this gateway's own stamp. The gateway names
// itself as the victim so the attacker-side handshake query comes back
// here (handleVerifyQuery). With tx non-nil the relay is queued on it.
func (g *Gateway) selfDetect(d detect.Detection, path []packet.RREntry, tx *sockBatch) {
	now := wallNow()
	label := d.Label.Canonical()
	g.mu.Lock()
	g.tx = tx
	defer func() {
		g.tx = nil
		g.mu.Unlock()
	}()
	g.stats.Detections++
	if g.tracing() {
		g.event(obs.EvAttackDetected, label, fmt.Sprintf("est %dB for protected client %v", d.EstBytes, d.Dst))
	}
	if err := g.installVictimFilter(label, now, now+sim.Time(g.cfg.Timers.Ttmp)); err != nil {
		// The wire-speed table is full even after aggregation: the
		// temporary filter is lost, but the shadow log and the
		// attacker-side request below must still go out (as in the
		// simulator gateway). The engine flags each flow once and the
		// continuing flood keeps it from re-arming, so bailing here
		// would silence detection of this flow forever.
		g.logf("temp filter: %v", err)
	}
	g.dp.LogShadow(label, g.node.Addr(), now, now+sim.Time(g.cfg.Timers.T))

	evidence := make([]packet.RREntry, 0, len(path)+1)
	evidence = append(evidence, path...)
	evidence = append(evidence, packet.RREntry{
		Router: g.node.Addr(),
		Nonce:  g.rec.Nonce(flow.Tuple{Src: label.Src, Dst: label.Dst}),
	})
	target, err := traceback.AttackPath(evidence).AttackerGateway()
	if err != nil || target == g.node.Addr() {
		// No attacker-side AITF node on the recorded path: our own
		// temporary filter is the whole defense, as in the simulator's
		// exhausted-ladder case.
		return
	}
	if g.tracing() {
		g.event(obs.EvRequestSent, label, "gateway-detected relay to attacker gw "+target.String())
	}
	gw, dlabel, dur := g.node.Addr(), d.Label, g.cfg.Timers.T
	g.ladder.SendBlind(label, func(txid uint64) *packet.Packet {
		return packet.NewControl(gw, target, &packet.FilterReq{
			Stage:    packet.StageToAttackerGW,
			Flow:     dlabel,
			Duration: dur,
			Round:    1,
			Victim:   gw,
			Evidence: evidence,
			Txid:     txid,
		})
	})
}

func (g *Gateway) handleFilterReq(p *packet.Packet, m *packet.FilterReq, from flow.Addr) {
	now := wallNow()
	// Retransmitted duplicates are absorbed first: a (source, txid)
	// pair seen within the dedup window is dropped before any side
	// effect or counter runs, making the receive path idempotent.
	if g.dedup.Seen(p.Src, m.Txid, now, filter.DedupWindow) {
		g.stats.CtrlDupDrops++
		if g.tracing() {
			g.event(obs.EvCtrlDupDrop, m.Flow, fmt.Sprintf("txid %d from %v", m.Txid, p.Src))
		}
		return
	}
	g.stats.ReqReceived++
	if !g.policer(from).Allow(now) {
		g.stats.ReqPoliced++
		if g.tracing() {
			g.event(obs.EvRequestPoliced, m.Flow.Canonical(), "from "+from.String())
		}
		return
	}
	label := m.Flow.Canonical()
	switch m.Stage {
	case packet.StageToVictimGW:
		// Victim-side: verify our own stamp, block temporarily, log
		// the shadow, and relay to the attacker's gateway.
		evidence := traceback.AttackPath(m.Evidence)
		if !g.rec.Verify(evidence, flow.Tuple{Src: label.Src, Dst: label.Dst}) {
			g.stats.ReqInvalid++
			g.event(obs.EvRequestInvalid, label, "bad evidence")
			return
		}
		// A full table loses only the temporary filter: the shadow and
		// the relay still go out, as in selfDetect and the simulator
		// gateway, so the attacker's gateway can take over the block.
		ierr := g.installVictimFilter(label, now, now+sim.Time(g.cfg.Timers.Ttmp))
		if ierr != nil {
			g.logf("temp filter: %v", ierr)
		}
		g.dp.LogShadow(label, m.Victim, now, now+sim.Time(g.cfg.Timers.T))
		target, err := evidence.AttackerGateway()
		if err != nil {
			return
		}
		if g.tracing() {
			if ierr == nil {
				g.event(obs.EvTempFilterInstalled, label, "relaying to attacker gw "+target.String())
			} else {
				g.event(obs.EvRequestSent, label, "relay to attacker gw "+target.String()+" without a temporary filter")
			}
		}
		req := *m
		req.Stage = packet.StageToAttackerGW
		gw := g.node.Addr()
		g.ladder.SendBlind(label, func(txid uint64) *packet.Packet {
			r := req
			r.Txid = txid
			return packet.NewControl(gw, target, &r)
		})
	case packet.StageToAttackerGW:
		// Attacker-side: verify our stamp then handshake the victim.
		if !g.rec.Verify(traceback.AttackPath(m.Evidence), flow.Tuple{Src: label.Src, Dst: label.Dst}) {
			g.stats.ReqInvalid++
			g.event(obs.EvRequestInvalid, label, "bad evidence")
			return
		}
		g.hs.Start(label, m, randNonce())
	}
}

// installVictimFilter installs a victim-side filter through the §IV
// aggregator, which keeps its review armed. Called under mu.
func (g *Gateway) installVictimFilter(label flow.Label, now, exp sim.Time) error {
	return g.agg.Install(label, now, exp)
}

func (g *Gateway) handleVerifyReply(m *packet.VerifyReply) {
	now := wallNow()
	label := m.Flow.Canonical()
	if !g.hs.Reply(label, m.Nonce) {
		return // completed, superseded, or forged: duplicates land here
	}
	if err := g.dp.Install(label, now, now+sim.Time(g.cfg.Timers.T)); err != nil {
		g.logf("filter: %v", err)
		return
	}
	g.plane.Record(cluster.OpInstall, label, now+sim.Time(g.cfg.Timers.T), now)
	// Tell the attacking client to stop (§II-C ii).
	g.stats.StopOrders++
	if g.tracing() {
		g.event(obs.EvHandshakeOK, label, "filtering for "+g.cfg.Timers.T.String())
		g.event(obs.EvStopOrder, label, "to attacker "+label.Src.String())
	}
	gw, mflow, dur := g.node.Addr(), m.Flow, g.cfg.Timers.T
	g.ladder.SendBlind(label, func(txid uint64) *packet.Packet {
		return packet.NewControl(gw, label.Src, &packet.FilterReq{
			Stage:    packet.StageToAttacker,
			Flow:     mflow,
			Duration: dur,
			Victim:   gw,
			Txid:     txid,
		})
	})
}

var _ Handler = (*Gateway)(nil)
