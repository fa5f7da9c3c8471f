package ctrl

import (
	"math/rand"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// fakeClock is a manual clock over a sim.Queue: timers fire only
// inside Advance, in (deadline, arming order) order, each at its own
// deadline. armed holds the handles of the timers that have neither
// fired nor been stopped.
type fakeClock struct {
	q     sim.Queue
	armed map[sim.Timer]bool
}

func (c *fakeClock) Now() time.Duration { return c.q.Now() }

func (c *fakeClock) Arm(d time.Duration, fn func()) sim.Timer {
	if c.armed == nil {
		c.armed = make(map[sim.Timer]bool)
	}
	var t sim.Timer
	t = c.q.ScheduleAt(c.q.Now()+max(d, 0), func() {
		delete(c.armed, t)
		fn()
	})
	c.armed[t] = true
	return t
}

func (c *fakeClock) Stop(t sim.Timer) {
	c.q.Cancel(t)
	delete(c.armed, t)
}

// Advance moves the clock d forward, firing every timer due by then.
func (c *fakeClock) Advance(d time.Duration) { c.q.RunUntil(c.q.Now() + d) }

// live counts armed timers that have neither fired nor been stopped.
func (c *fakeClock) live() int { return len(c.armed) }

// tx is one transmission seen by the fake transport.
type tx struct {
	at    time.Duration
	txid  uint64 // FilterReq txid
	nonce uint64 // VerifyQuery nonce
	query bool
}

// rig is a ladder and a ledger over one fake clock and transport.
type rig struct {
	clk    *fakeClock
	ladder *Ladder
	hs     *Ledger
	sent   []tx
	events []obs.EventKind
}

func newRig(cfg Config, jitter func() float64, timeout time.Duration) *rig {
	r := &rig{clk: &fakeClock{}}
	out := func(p *packet.Packet) {
		t := tx{at: r.clk.Now()}
		switch m := p.Msg.(type) {
		case *packet.FilterReq:
			t.txid = m.Txid
		case *packet.VerifyQuery:
			t.nonce, t.query = m.Nonce, true
		}
		r.sent = append(r.sent, t)
	}
	trace := func(k obs.EventKind, _ flow.Label, _ string) { r.events = append(r.events, k) }
	r.ladder = NewLadder(cfg, r.clk, jitter, out, trace)
	r.hs = NewLedger(r.ladder, r.clk, timeout, trace)
	return r
}

func label(i int) flow.Label {
	return flow.PairLabel(flow.MakeAddr(20, 0, 0, byte(i)), flow.MakeAddr(10, 0, 0, 2))
}

func req(txid uint64) *packet.Packet {
	return packet.NewControl(1, 2, &packet.FilterReq{Stage: packet.StageToAttackerGW, Txid: txid})
}

func noJitter() float64 { return 0.5 }

func TestLadderAttemptBound(t *testing.T) {
	r := newRig(Config{MaxAttempts: 4, RTO: 100 * time.Millisecond}, noJitter, time.Second)
	tok := r.ladder.Send(label(1), req)
	r.clk.Advance(time.Minute)
	if len(r.sent) != 4 {
		t.Fatalf("%d transmissions, want MaxAttempts = 4", len(r.sent))
	}
	for _, s := range r.sent {
		if s.txid != tok || tok == 0 {
			t.Fatalf("txids %+v, want every attempt to carry token %d", r.sent, tok)
		}
	}
	if st := r.ladder.Stats(); st != (Stats{ReliableSends: 1, Retransmits: 3}) {
		t.Fatalf("stats %+v", st)
	}
	if n := r.ladder.Outstanding(); n != 0 || r.clk.live() != 0 {
		t.Fatalf("spent ladder left %d outstanding, %d timers", n, r.clk.live())
	}

	r.sent = nil
	r.ladder.SendBlind(label(2), req)
	r.clk.Advance(time.Minute)
	if len(r.sent) != 2 || r.sent[0].txid != r.sent[1].txid {
		t.Fatalf("blind send: %+v, want two copies of one txid", r.sent)
	}

	// Retransmission off: one copy, txid 0, no token and no counter.
	off := newRig(Config{}, noJitter, time.Second)
	if tok := off.ladder.Send(label(1), req); tok != 0 {
		t.Fatalf("disabled ladder returned token %d", tok)
	}
	off.ladder.SendBlind(label(1), req)
	off.clk.Advance(time.Minute)
	if len(off.sent) != 2 || off.sent[0].txid != 0 || off.sent[1].txid != 0 {
		t.Fatalf("disabled ladder sent %+v, want two single shots with txid 0", off.sent)
	}
	if st := off.ladder.Stats(); st != (Stats{}) {
		t.Fatalf("disabled ladder counted %+v", st)
	}
}

func TestLadderBackoff(t *testing.T) {
	const rto = 100 * time.Millisecond
	r := newRig(Config{MaxAttempts: 4, RTO: rto}, noJitter, time.Second)
	r.ladder.Send(label(1), req)
	r.clk.Advance(time.Minute)
	for i, want := range []time.Duration{0, rto, 3 * rto, 7 * rto} {
		if r.sent[i].at != want {
			t.Fatalf("attempt %d at %v, want %v (doubling from RTO)", i+1, r.sent[i].at, want)
		}
	}

	// ±Jitter: every draw scales RTO·2^(n−1) into [1−J, 1+J], and the
	// extremes of the source reach both ends.
	const j = 0.25
	rng := rand.New(rand.NewSource(1))
	l := NewLadder(Config{MaxAttempts: 6, RTO: rto, Jitter: j}, &fakeClock{}, rng.Float64, nil, nil)
	for n := 1; n <= 5; n++ {
		base := float64(rto * (1 << (n - 1)))
		lo, hi := time.Duration(base*(1-j)), time.Duration(base*(1+j))
		for range 1000 {
			if d := l.backoff(n); d < lo || d > hi {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", n, d, lo, hi)
			}
		}
	}
	for draw, want := range map[float64]time.Duration{0: 75 * time.Millisecond, 0.5: rto, 1: 125 * time.Millisecond} {
		l.jitter = func() float64 { return draw }
		if d := l.backoff(1); d != want {
			t.Fatalf("draw %v: backoff %v, want %v", draw, d, want)
		}
	}

	// The floor: no backoff is under a millisecond.
	l = NewLadder(Config{MaxAttempts: 2, RTO: time.Microsecond, Jitter: 0.5}, &fakeClock{}, func() float64 { return 0 }, nil, nil)
	if d := l.backoff(1); d != time.Millisecond {
		t.Fatalf("backoff %v, want the 1 ms floor", d)
	}
}

func TestLadderCancelAndStopAll(t *testing.T) {
	r := newRig(Config{MaxAttempts: 5, RTO: 100 * time.Millisecond}, noJitter, time.Second)
	a := r.ladder.Send(label(1), req)
	b := r.ladder.Send(label(2), req)
	r.ladder.Cancel(a)
	r.ladder.Cancel(a) // twice, and unknown and zero tokens: no-ops
	r.ladder.Cancel(999)
	r.ladder.Cancel(0)
	r.clk.Advance(150 * time.Millisecond)
	perTxid := map[uint64]int{}
	for _, s := range r.sent {
		perTxid[s.txid]++
	}
	if perTxid[a] != 1 || perTxid[b] != 2 {
		t.Fatalf("per-txid transmissions %v, want %d:1 (cancelled) and %d:2", perTxid, a, b)
	}

	r.ladder.Send(label(3), req)
	r.ladder.StopAll()
	sent := len(r.sent)
	r.clk.Advance(time.Minute)
	if len(r.sent) != sent {
		t.Fatalf("%d transmissions after StopAll", len(r.sent)-sent)
	}
	if n := r.ladder.Outstanding(); n != 0 || r.clk.live() != 0 {
		t.Fatalf("StopAll left %d outstanding, %d timers", n, r.clk.live())
	}
}

func TestLadderTxidContinuity(t *testing.T) {
	cfg := Config{MaxAttempts: 3, RTO: 100 * time.Millisecond}
	a := newRig(cfg, noJitter, time.Second)
	for range 3 {
		a.ladder.Send(label(1), req)
	}
	b := newRig(cfg, noJitter, time.Second)
	b.ladder.RestoreTxid(a.ladder.NextTxid())
	b.ladder.RestoreTxid(1) // never backwards
	if tok := b.ladder.Send(label(1), req); tok != 4 {
		t.Fatalf("first txid after restoring from %d is %d, want 4", a.ladder.NextTxid(), tok)
	}
}

// balanced fails the test unless started = ok + failed + pending.
func balanced(t *testing.T, h *Ledger, step string) LedgerStats {
	t.Helper()
	st := h.Stats()
	if st.Started != st.OK+st.Failed+uint64(h.Pending()) {
		t.Fatalf("%s: ledger off: %+v, %d pending", step, st, h.Pending())
	}
	return st
}

func TestLedgerBalances(t *testing.T) {
	cfg := Config{MaxAttempts: 4, RTO: 100 * time.Millisecond, Jitter: 0.25}
	r := newRig(cfg, rand.New(rand.NewSource(2)).Float64, time.Second)
	fr := func(i int) *packet.FilterReq {
		return &packet.FilterReq{Stage: packet.StageToAttackerGW, Flow: label(i), Victim: flow.MakeAddr(10, 0, 0, 2)}
	}

	r.hs.Start(label(1), fr(1), 11)
	r.hs.Start(label(1), fr(1), 12) // supersedes
	if st := balanced(t, r.hs, "supersede"); st.Failed != 1 || r.hs.Pending() != 1 {
		t.Fatalf("supersede: %+v, %d pending", st, r.hs.Pending())
	}
	if r.hs.Reply(label(1), 11) {
		t.Fatal("the superseded nonce completed the handshake")
	}
	if !r.hs.Reply(label(1), 12) || r.hs.Reply(label(1), 12) {
		t.Fatal("the live nonce must complete the handshake exactly once")
	}
	if st := balanced(t, r.hs, "reply"); st.OK != 1 {
		t.Fatalf("reply: %+v", st)
	}

	r.hs.Start(label(2), fr(2), 21)
	r.clk.Advance(2 * time.Second)
	if st := balanced(t, r.hs, "timeout"); st.Failed != 2 {
		t.Fatalf("timeout: %+v", st)
	}
	if n := r.ladder.Outstanding(); n != 0 {
		t.Fatalf("%d query ladders outstanding after every handshake resolved", n)
	}

	// A crash with two handshakes in flight; the outage outlasts the
	// first one's window but not the second's.
	r.hs.Start(label(3), fr(3), 31)
	r.clk.Advance(600 * time.Millisecond)
	r.hs.Start(label(4), fr(4), 41)
	snap, stats, txid := r.hs.Export(), r.hs.Stats(), r.ladder.NextTxid()
	r.hs.StopAll()
	r.ladder.StopAll()
	if r.clk.live() != 0 {
		t.Fatalf("%d timers armed after StopAll", r.clk.live())
	}

	b := newRig(cfg, rand.New(rand.NewSource(3)).Float64, time.Second)
	b.clk.Advance(r.clk.Now() + 500*time.Millisecond)
	b.hs.RestoreStats(stats)
	b.ladder.RestoreTxid(txid)
	b.hs.Adopt(snap)
	if st := balanced(t, b.hs, "restore"); st.Failed != 3 || b.hs.Pending() != 1 {
		t.Fatalf("restore: %+v, %d pending; want the lapsed handshake failed", st, b.hs.Pending())
	}
	if len(b.sent) != 1 || !b.sent[0].query || b.sent[0].nonce != 41 {
		t.Fatalf("restore sent %+v, want one query re-issued with the original nonce", b.sent)
	}
	if !b.hs.Reply(label(4), 41) {
		t.Fatal("the re-issued handshake did not complete")
	}
	if st := balanced(t, b.hs, "after restore"); st.OK != 2 || b.ladder.Outstanding() != 0 {
		t.Fatalf("after restore: %+v, %d outstanding", st, b.ladder.Outstanding())
	}
	kinds := map[obs.EventKind]int{}
	for _, k := range append(r.events, b.events...) {
		kinds[k]++
	}
	if kinds[obs.EvHandshakeQuery] != 5 || kinds[obs.EvHandshakeFailed] != 3 {
		t.Fatalf("events %v, want 5 queries and 3 failures", kinds)
	}
}

// FuzzControl runs random scripts of sends, cancels, clock advances,
// handshake starts and replies, halts and restores against one ladder
// and ledger, checking after every step that the handshake ledger
// balances, that no logical send exceeds its attempt bound or changes
// txid, that txids never repeat across a restore, and that nothing is
// transmitted while halted. At the end every ladder and handshake must
// drain. Its seeds are in testdata/fuzz/FuzzControl.
func FuzzControl(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 3 {
			return
		}
		cfg := Config{
			MaxAttempts: int(script[0] % 6),
			RTO:         time.Duration(script[1]%200+1) * time.Millisecond,
			Jitter:      float64(script[2]%10) / 10,
		}
		script = script[3:]
		const timeout = time.Second
		rng := rand.New(rand.NewSource(int64(len(script))))
		clk := &fakeClock{}
		halted := false
		txs := map[uint64]int{}    // transmissions per txid
		bound := map[uint64]int{}  // attempt bound per txid
		nonces := map[int]uint64{} // label index -> last started nonce
		var ladder *Ladder
		var hs *Ledger
		build := func() {
			out := func(p *packet.Packet) {
				if halted {
					t.Fatal("transmission while halted")
				}
				if m, ok := p.Msg.(*packet.FilterReq); ok && m.Txid != 0 {
					txs[m.Txid]++
					if txs[m.Txid] > bound[m.Txid] {
						t.Fatalf("txid %d sent %d times, bound %d", m.Txid, txs[m.Txid], bound[m.Txid])
					}
				}
			}
			ladder = NewLadder(cfg, clk, rng.Float64, out, func(obs.EventKind, flow.Label, string) {})
			hs = NewLedger(ladder, clk, timeout, func(obs.EventKind, flow.Label, string) {})
		}
		build()
		send := func(attempts int, blind bool) {
			// The txid is known only once the ladder numbers the send, so
			// register its bound at the first build call.
			first := true
			b := func(txid uint64) *packet.Packet {
				if first && txid != 0 {
					if _, reused := bound[txid]; reused {
						t.Fatalf("txid %d handed out twice", txid)
					}
					bound[txid] = attempts
				}
				first = false
				return req(txid)
			}
			if blind {
				ladder.SendBlind(label(0), b)
			} else {
				ladder.Send(label(0), b)
			}
		}
		var toks []uint64
		var snap []Pending
		var snapStats LedgerStats
		var snapLadder Stats
		var snapTxid uint64
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%8, int(script[i+1])
			if halted && op != 6 && op != 7 {
				continue // a halted gateway does nothing until restored
			}
			switch op {
			case 0:
				send(cfg.MaxAttempts, false)
				if cfg.Enabled() {
					toks = append(toks, ladder.NextTxid())
				}
			case 1:
				send(min(2, cfg.MaxAttempts), true)
			case 2:
				if len(toks) > 0 {
					ladder.Cancel(toks[arg%len(toks)])
				}
			case 3:
				clk.Advance(time.Duration(arg) * 5 * time.Millisecond)
			case 4:
				l := arg % 4
				nonces[l] = rng.Uint64()
				hs.Start(label(l), &packet.FilterReq{Stage: packet.StageToAttackerGW, Flow: label(l)}, nonces[l])
			case 5:
				l := arg % 4
				nonce := nonces[l]
				if arg&4 != 0 {
					nonce++ // a forged or stale reply
				}
				hs.Reply(label(l), nonce)
			case 6:
				if !halted {
					snap, snapStats, snapLadder, snapTxid = hs.Export(), hs.Stats(), ladder.Stats(), ladder.NextTxid()
					hs.StopAll()
					ladder.StopAll()
					halted = true
					if clk.live() != 0 {
						t.Fatalf("%d timers armed after halt", clk.live())
					}
				}
			case 7:
				if !halted {
					snap, snapStats, snapLadder, snapTxid = hs.Export(), hs.Stats(), ladder.Stats(), ladder.NextTxid()
					hs.StopAll()
					ladder.StopAll()
				}
				clk.Advance(time.Duration(arg) * 10 * time.Millisecond) // downtime
				halted = false
				build()
				toks = nil
				hs.RestoreStats(snapStats)
				ladder.RestoreStats(snapLadder)
				ladder.RestoreTxid(snapTxid)
				hs.Adopt(snap)
			}
			balanced(t, hs, "step")
			if st := ladder.Stats(); cfg.Enabled() && st.Retransmits > st.ReliableSends*uint64(cfg.MaxAttempts-1) {
				t.Fatalf("%d retransmits for %d sends at %d attempts", st.Retransmits, st.ReliableSends, cfg.MaxAttempts)
			}
		}
		if halted {
			return
		}
		clk.Advance(time.Hour)
		if n, p := ladder.Outstanding(), hs.Pending(); n != 0 || p != 0 || clk.live() != 0 {
			t.Fatalf("after draining: %d ladders, %d handshakes, %d timers", n, p, clk.live())
		}
		balanced(t, hs, "drained")
	})
}
