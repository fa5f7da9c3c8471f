package border

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"aitf/internal/contract"
	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
)

// The engine under test is the border router G. Its clients are the
// AITF victim V, the attacking host A and the legacy host L, which G
// defends by detection; every other address lies behind the peer P,
// which is also G's provider when the rig has one. X is the attacker's
// gateway on the evidence paths G receives.
var (
	self   = flow.MakeAddr(10, 0, 0, 1)
	victim = flow.MakeAddr(10, 0, 1, 1)
	host   = flow.MakeAddr(10, 0, 2, 1)
	legacy = flow.MakeAddr(10, 0, 3, 1)
	peer   = flow.MakeAddr(10, 9, 0, 1)
	xgw    = flow.MakeAddr(20, 9, 0, 1)
)

func remote(i int) flow.Addr { return flow.MakeAddr(20, 0, 0, byte(1+i)) }

// fakeClock is a manual clock: timers fire only inside Advance, in
// (deadline, arming order) order, each at its own deadline.
type fakeClock struct {
	now    time.Duration
	seq    int
	timers []*fakeTimer
}

type fakeTimer struct {
	at   time.Duration
	seq  int
	fn   func()
	dead bool // fired or cancelled
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) After(d time.Duration, fn func()) func() {
	t := &fakeTimer{at: c.now + max(d, 0), seq: c.seq, fn: fn}
	c.seq++
	c.timers = append(c.timers, t)
	return func() { t.dead = true }
}

// Advance moves the clock d forward, firing every timer due by then.
func (c *fakeClock) Advance(d time.Duration) {
	end := c.now + d
	for {
		var next *fakeTimer
		live := c.timers[:0]
		for _, t := range c.timers {
			if t.dead {
				continue
			}
			live = append(live, t)
			if t.at <= end && (next == nil || t.at < next.at || t.at == next.at && t.seq < next.seq) {
				next = t
			}
		}
		c.timers = live
		if next == nil {
			break
		}
		next.dead = true
		c.now = next.at
		next.fn()
	}
	c.now = end
}

// rig is one engine on a fake clock, with the sends it made.
type rig struct {
	clk  *fakeClock
	cfg  Config
	e    *Engine
	sent *[]*packet.Packet
}

func testConfig(provider bool, cooperative bool, mode ShadowMode, retransmit bool) Config {
	c := contract.Contract{R1: 1000, R1Burst: 1000, R2: 1000, R2Burst: 1000}
	cfg := Config{
		Timers:           contract.Timers{T: 2 * time.Second, Ttmp: 200 * time.Millisecond, Grace: 50 * time.Millisecond, Penalty: time.Second},
		FilterCapacity:   64,
		ShadowCapacity:   64,
		ShadowMode:       mode,
		Cooperative:      cooperative,
		Secret:           []byte("g"),
		HandshakeTimeout: 300 * time.Millisecond,
		Clients:          map[flow.Addr]contract.Contract{victim: c, host: c, legacy: c},
		Peers:            map[flow.Addr]contract.Contract{peer: c},
		Detection: &Detection{
			Config:    detect.Config{ThresholdBps: 20000, Window: 100 * time.Millisecond, Width: 64, Depth: 2, TopK: 8},
			Protected: []flow.Addr{legacy},
		},
	}
	if provider {
		cfg.Provider = peer
	}
	if retransmit {
		cfg.Control.MaxAttempts, cfg.Control.RTO, cfg.Control.Jitter = 3, 40*time.Millisecond, 0.25
	}
	return cfg
}

func newRig(cfg Config) *rig {
	r := &rig{clk: &fakeClock{}, cfg: cfg}
	r.start(nil)
	return r
}

// start builds a fresh engine on the rig's clock, restoring snap when
// it is not nil, with a send log of its own.
func (r *rig) start(snap *Snapshot) {
	sent := new([]*packet.Packet)
	r.sent = sent
	r.e = New(r.cfg, Env{
		Addr:  self,
		Clock: r.clk,
		Rand:  rand.New(rand.NewSource(1)),
		Send:  func(p *packet.Packet) { *sent = append(*sent, p) },
		NextHop: func(dst flow.Addr) (flow.Addr, bool) {
			switch dst {
			case victim, host, legacy:
				return dst, true
			}
			return peer, true
		},
		Trace: func(obs.EventKind, flow.Label, string) {},
	})
	if snap != nil {
		r.e.Restore(snap)
	}
}

// drain returns and forgets the sends made since the last drain.
func (r *rig) drain() []*packet.Packet {
	out := *r.sent
	*r.sent = nil
	return out
}

// data runs a data packet through the engine's calls in the order the
// data half makes them: classification, liveness, then the drop, the
// shadow reappearance and detection.
func (r *rig) data(p *packet.Packet, from flow.Addr) {
	v := r.e.Classify(p.Tuple(), int(p.PayloadLen))
	r.e.Seen(flow.PairLabel(p.Src, p.Dst), from, r.clk.now)
	if v.Drop || v.ShadowHit && r.e.Reappeared(v.Shadow) {
		return
	}
	r.e.Observe(r.clk.now, p)
}

// stamp is G's genuine route-record entry for traffic from src to dst.
func (r *rig) stamp(src, dst flow.Addr) packet.RREntry {
	return packet.RREntry{Router: self, Nonce: r.e.RouteNonce(src, dst)}
}

func (r *rig) request(from flow.Addr, stage packet.Stage, label flow.Label, requester flow.Addr, evidence []packet.RREntry, txid uint64) {
	r.e.Control(packet.NewControl(from, self, &packet.FilterReq{
		Stage: stage, Flow: label, Duration: r.cfg.Timers.T, Round: 1,
		Victim: requester, Evidence: evidence, Txid: txid,
	}), from)
}

// queryNonce returns the nonce of the last verification query among
// sends for label.
func queryNonce(sends []*packet.Packet, label flow.Label) (uint64, bool) {
	var n uint64
	var ok bool
	for _, p := range sends {
		if q, is := p.Msg.(*packet.VerifyQuery); is && q.Flow == label {
			n, ok = q.Nonce, true
		}
	}
	return n, ok
}

// balanced checks the handshake books: every handshake started is
// resolved OK, resolved failed, or still pending.
func balanced(t *testing.T, e *Engine, at string) {
	t.Helper()
	s := e.Stats()
	if s.HandshakesStarted != s.HandshakesOK+s.HandshakesFailed+uint64(e.PendingHandshakes()) {
		t.Fatalf("%s: started %d != ok %d + failed %d + pending %d", at,
			s.HandshakesStarted, s.HandshakesOK, s.HandshakesFailed, e.PendingHandshakes())
	}
}

// TestSnapshotRoundTrip builds every kind of state the engine keeps —
// a watch escalated past round 1, a compliance check, a disconnection,
// a pending handshake — then restores its snapshot into a fresh engine
// on the same clock: a second snapshot equals the first.
func TestSnapshotRoundTrip(t *testing.T) {
	r := newRig(testConfig(false, true, VictimDriven, false))
	tm := r.cfg.Timers

	// Round 1 against S→V, the flow keeps arriving through the peer,
	// so the takeover check escalates; with no provider, G disconnects
	// the peer the flow arrives through.
	bad := flow.PairLabel(remote(0), victim)
	r.request(victim, packet.StageToVictimGW, bad, victim,
		[]packet.RREntry{{Router: xgw, Nonce: 7}, r.stamp(remote(0), victim)}, 1)
	r.clk.Advance(tm.Ttmp - tm.Grace/2)
	r.data(packet.NewData(remote(0), victim, flow.ProtoUDP, 1, 2, 500), peer)
	r.clk.Advance(tm.Grace)

	// As the attacker's gateway: one handshake completes (filter, stop
	// order, compliance check), one stays pending.
	for i, reply := range []bool{true, false} {
		l := flow.PairLabel(host, remote(1+i))
		r.request(peer, packet.StageToAttackerGW, l, remote(1+i), []packet.RREntry{r.stamp(host, remote(1+i))}, uint64(10+i))
		if n, ok := queryNonce(r.drain(), l); ok && reply {
			r.e.Control(packet.NewControl(remote(1+i), self, &packet.VerifyReply{Flow: l, Nonce: n}), peer)
		}
	}

	snap := r.e.Snapshot()
	if len(snap.Watches) != 1 || snap.Watches[0].Round < 2 || len(snap.Compliance) != 1 ||
		len(snap.Disconnected) != 1 || len(snap.Pendings) != 1 || len(snap.Filters) < 2 {
		t.Fatalf("state not built: watches %+v compliance %d disconnected %d pendings %d filters %d",
			snap.Watches, len(snap.Compliance), len(snap.Disconnected), len(snap.Pendings), len(snap.Filters))
	}
	r.e.Halt()
	r.start(snap)
	if again := r.e.Snapshot(); !reflect.DeepEqual(snap, again) {
		t.Fatalf("restored snapshot differs:\n got %+v\nwant %+v", again, snap)
	}
	balanced(t, r.e, "after restore")
}

// TestIdleEngineReadsAsEmpty: an engine without detection that has
// handled no control message has built nothing, data traffic does not
// build it, and every read of it reports what an eagerly built, empty
// engine reports, without building it: counters, both tables, the
// snapshot, disconnection, the reliable sends and handshakes in
// flight, the detection plane. Halted and restored from its snapshot into a fresh engine,
// it still reads as the eager one does.
func TestIdleEngineReadsAsEmpty(t *testing.T) {
	cfg := testConfig(true, true, VictimDriven, true)
	cfg.Detection = nil
	idle, eager := newRig(cfg), newRig(cfg)
	eager.e.DataPlane()

	type reads struct {
		stats        Stats
		filters      filter.Stats
		shadows      filter.ShadowStats
		snapshot     string // nil and empty print alike
		disconnected bool
		outstanding  int
		pending      int
		armed        bool
		killed       bool
	}
	read := func(r *rig) reads {
		_, _, killed := r.e.KillReplica(0)
		return reads{r.e.Stats(), r.e.Filters().Stats(), r.e.Shadows().Stats(), fmt.Sprintf("%+v", *r.e.Snapshot()),
			r.e.Disconnected(peer, r.clk.now), r.e.OutstandingReliable(), r.e.PendingHandshakes(),
			r.e.Detector() != nil || r.e.Cluster() != nil, killed}
	}
	for _, r := range []*rig{idle, eager} {
		r.clk.Advance(time.Second)
		r.data(packet.NewData(remote(0), victim, flow.ProtoUDP, 1, 2, 500), peer)
		r.data(packet.NewData(host, remote(1), flow.ProtoUDP, 1, 2, 500), host)
	}
	if got, want := read(idle), read(eager); got != want {
		t.Fatalf("idle engine reads\n%+v\nan eager one\n%+v", got, want)
	}
	if idle.e.Built() {
		t.Fatal("data traffic or a read built the control half")
	}

	crashed := idle.e
	for _, r := range []*rig{idle, eager} {
		snap := r.e.Snapshot()
		r.e.Halt()
		r.start(snap)
	}
	if crashed.Built() {
		t.Fatal("Halt built the control half")
	}
	if got, want := read(idle), read(eager); got != want {
		t.Fatalf("restored idle engine reads\n%+v\na restored eager one\n%+v", got, want)
	}
}

// TestStatsBesideFirstBuild is the -race workout for the lazy build:
// another goroutine reads Stats while the first control message builds
// the control half.
func TestStatsBesideFirstBuild(t *testing.T) {
	cfg := testConfig(false, true, VictimDriven, false)
	cfg.Detection = nil
	r := newRig(cfg)
	l := flow.PairLabel(host, remote(1))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.e.Stats()
			}
		}
	}()
	r.request(peer, packet.StageToAttackerGW, l, remote(1), []packet.RREntry{r.stamp(host, remote(1))}, 1)
	close(stop)
	wg.Wait()
	if s := r.e.Stats(); s.HandshakesStarted != 1 {
		t.Fatalf("handshakes started %d, want 1", s.HandshakesStarted)
	}
}

// FuzzGatewayEngine drives one engine with byte-chosen filtering
// requests at every stage (with valid, forged or no evidence and fresh
// or replayed txids), verification queries and replies (right and
// wrong nonces), attack traffic toward the legacy client, liveness
// packets, clock advances, and crashes with a restore into a fresh
// engine. After every step the handshake books balance; a FilterReq
// whose (src, txid) the engine recorded less than DedupWindow ago
// moves CtrlDupDrops (and MsgProcessed, which counts every control
// arrival) and nothing else, and sends nothing; a halted engine never
// sends again, whatever the clock does.
func FuzzGatewayEngine(f *testing.F) {
	// Victim side: a request, the flow persisting past Ttmp (escalation
	// to a disconnection), the attacker gateway's query, a re-request
	// caught by the shadow, its replay, then silence.
	f.Add([]byte{0x00, 0, 0x04, 6, 0x00, 7, 35, 6, 0x00, 7, 10, 3, 0x00, 7, 255, 0, 0x08, 0, 0x08, 9, 30})
	// Attacker side with a provider and retransmission: a handshake
	// answered, a client that keeps sending past its grace, a wrong
	// nonce, a timeout, stop orders from the provider and from a
	// client, forged evidence, a crash, silence.
	f.Add([]byte{0x11, 1, 0x05, 4, 0x01, 7, 15, 6, 0x03, 7, 10, 1, 0x0a, 4, 0x06, 9, 5,
		2, 0x00, 2, 0x20, 1, 0x85, 8, 0, 7, 50, 9, 30})
	// Gateway-side detection under GatewayAuto: a burst toward the
	// legacy client, the query answered from the watch, a takeover, a
	// reappearance re-blocked on the data path, silence.
	f.Add([]byte{0x04, 5, 0x1c, 3, 0x04, 7, 60, 7, 40, 5, 0x04, 9, 40})
	// A crash while a takeover check is due and the flow still arrives:
	// only the halt gate keeps the dead engine from escalating.
	f.Add([]byte{0x00, 0, 0x04, 7, 32, 6, 0x00, 8, 0, 9, 0})
	// A non-cooperating gateway with the shadow off: requests ignored,
	// a victim's request from a non-client, crashes mid-round.
	f.Add([]byte{0x0a, 1, 0x04, 0, 0x24, 0, 0x44, 8, 0, 6, 0x02, 7, 30, 8, 0, 0, 0x44, 9, 10})
	// An engine without detection (0x80) starts idle: data while it has
	// built nothing, then its first control message, a request naming it
	// the attacker's gateway, answered; the client keeps sending, a
	// crash, silence.
	f.Add([]byte{0x91, 0x06, 1, 0x07, 10, 0x01, 5, 0x04, 1, 0x06, 3, 0x08, 0, 0x09, 20})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 1 {
			return
		}
		b := script[0]
		cfg := testConfig(b&1 != 0, b&2 == 0, ShadowMode(b>>2%3), b&16 != 0)
		if b&0x80 != 0 {
			cfg.Detection = nil
		}
		r := newRig(cfg)
		script = script[1:]

		// recorded mirrors the engine's dedup: when each (src, txid) was
		// last recorded. A restored engine starts with an empty window.
		type key struct {
			src  flow.Addr
			txid uint64
		}
		recorded := map[key]time.Duration{}
		nonces := map[flow.Label]uint64{} // last query nonce G sent, per flow
		var halted []*[]*packet.Packet    // send logs of crashed engines
		crashes := 0

		deliver := func(from flow.Addr, stage packet.Stage, label flow.Label, requester flow.Addr, ev []packet.RREntry, txid uint64) {
			k := key{from, txid}
			at, seen := recorded[k]
			dup := txid != 0 && seen && r.clk.now-at < filter.DedupWindow
			if txid != 0 && !dup {
				recorded[k] = r.clk.now
			}
			before := r.e.Stats()
			r.request(from, stage, label, requester, ev, txid)
			if !dup {
				return
			}
			before.CtrlDupDrops++
			before.MsgProcessed++
			if after := r.e.Stats(); after != before || len(*r.sent) != 0 {
				t.Fatalf("replayed txid %d from %v at %v moved more than CtrlDupDrops: %+v -> %+v, %d sends",
					txid, from, r.clk.now, before, after, len(*r.sent))
			}
		}
		evidence := func(arg int, src, dst flow.Addr, path ...packet.RREntry) []packet.RREntry {
			switch arg >> 6 {
			case 0, 1:
				return append(path, r.stamp(src, dst))
			case 2: // forged: our address, a wrong authenticator
				return append(path, packet.RREntry{Router: self, Nonce: r.e.RouteNonce(src, dst) ^ 1})
			}
			return nil
		}
		txid := func(arg int) uint64 { return uint64(arg>>2&7) % 5 }

		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%10, int(script[i+1])
			switch op {
			case 0: // a victim's request for S→V, from V or (invalid) from P
				from := victim
				if arg&32 != 0 {
					from = peer
				}
				src := remote(arg & 3)
				deliver(from, packet.StageToVictimGW, flow.PairLabel(src, victim), victim,
					evidence(arg, src, victim, packet.RREntry{Router: xgw, Nonce: 9}), txid(arg))
			case 1: // a request naming G the attacker's gateway for A→D
				dst := remote(arg & 3)
				deliver(peer, packet.StageToAttackerGW, flow.PairLabel(host, dst), dst,
					evidence(arg, host, dst), txid(arg))
			case 2: // a stop order for A→D, from the peer or from a client
				from := peer
				if arg&32 != 0 {
					from = victim
				}
				deliver(from, packet.StageToAttacker, flow.PairLabel(host, remote(arg&3)), peer, nil, txid(arg))
			case 3: // the attacker's gateway verifies a request G sent
				l := flow.PairLabel(remote(arg&3), victim)
				if arg&4 != 0 {
					l = flow.PairLabel(remote(arg&3), legacy)
				}
				r.e.Control(packet.NewControl(xgw, self, &packet.VerifyQuery{Flow: l, Nonce: uint64(arg)}), peer)
			case 4: // the claimed victim answers G's query, rightly or not
				l := flow.PairLabel(host, remote(arg&3))
				n := nonces[l]
				if arg&4 != 0 {
					n ^= 1 + uint64(arg>>3)
				}
				r.e.Control(packet.NewControl(remote(arg&3), self, &packet.VerifyReply{Flow: l, Nonce: n}), peer)
			case 5: // attack traffic toward the legacy client
				src := remote(arg & 3)
				for j := 0; j < 1+arg>>2; j++ {
					p := packet.NewData(src, legacy, flow.ProtoUDP, 1, 2, 1000)
					p.RecordRoute(xgw, 9)
					r.data(p, peer)
				}
			case 6: // liveness: a victim-side flow, or A still sending
				if arg&1 != 0 {
					r.data(packet.NewData(host, remote(arg>>1&3), flow.ProtoUDP, 1, 2, 100), host)
				} else {
					r.data(packet.NewData(remote(arg>>1&3), victim, flow.ProtoUDP, 1, 2, 100), peer)
				}
			case 7: // the clock moves on
				r.clk.Advance(time.Duration(arg) * 5 * time.Millisecond)
			case 8: // a crash: snapshot, halt, restore into a fresh engine
				if crashes == 3 {
					continue
				}
				crashes++
				snap := r.e.Snapshot()
				r.e.Halt()
				r.drain()
				halted = append(halted, r.sent)
				r.start(snap)
				clear(recorded)
			case 9: // a long silence: every timer due fires
				r.clk.Advance(time.Duration(1+arg) * 100 * time.Millisecond)
			}
			for _, p := range *r.sent {
				if q, ok := p.Msg.(*packet.VerifyQuery); ok {
					nonces[q.Flow] = q.Nonce
				}
			}
			r.drain()
			balanced(t, r.e, "step")
			for _, h := range halted {
				if len(*h) != 0 {
					t.Fatalf("a halted engine sent %d packets", len(*h))
				}
			}
		}
	})
}
