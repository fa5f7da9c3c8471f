// Package ctrl is the reliable control plane both gateway runtimes
// share. AITF's signalling crosses the links the attack is clogging
// (§II-C/E), so a Ladder retransmits each logical send with exponential
// backoff until it is cancelled or spent, under a txid receivers dedup
// on (filter.Dedup over filter.DedupWindow); a Ledger runs the
// attacker-side §II-E handshake on top of it. The runtime supplies the
// Clock and the transmit function. Every method but Stats must be
// serialised by the caller, and the Clock serialises timer callbacks
// with it (the simulator's event loop, the daemon's gateway lock).
package ctrl

import (
	"fmt"
	"sync/atomic"
	"time"

	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// Config tunes bounded control-plane retransmission. The zero value
// disables it: every send is single-shot and carries txid 0.
type Config struct {
	// MaxAttempts bounds total transmissions per logical send (the
	// first attempt plus retransmissions). Values <= 1 disable
	// retransmission.
	MaxAttempts int
	// RTO is the first retransmission timeout; it doubles per attempt.
	RTO time.Duration
	// Jitter, in [0, 1), scales each backoff by a uniform factor in
	// 1 ± Jitter, so synchronized losses do not resynchronize the
	// retries.
	Jitter float64
}

// Enabled reports whether the configuration arms retransmission.
func (c Config) Enabled() bool { return c.MaxAttempts > 1 && c.RTO > 0 }

// Clock is the runtime's time source and timer queue. Now reads the
// clock every deadline is expressed on. Arm runs fn once, d from now,
// serialised with the caller's other control-plane work, unless Stop
// is given the handle first; a stale or zero handle is a no-op. Both
// runtimes arm on a sim.Queue, so an arm allocates nothing: callers
// pass a callback bound once per record they keep, not one built per
// arm.
type Clock interface {
	Now() time.Duration
	Arm(d time.Duration, fn func()) sim.Timer
	Stop(t sim.Timer)
}

// Trace receives the control plane's protocol events. A nil Trace
// records nothing, and no event detail is formatted for it.
type Trace func(kind obs.EventKind, label flow.Label, detail string)

// emit records an event with a fixed detail on t, if there is one.
func (t Trace) emit(kind obs.EventKind, label flow.Label, detail string) {
	if t != nil {
		t(kind, label, detail)
	}
}

// Stats are a Ladder's counters.
type Stats struct {
	ReliableSends uint64 // logical sends that carried a txid
	Retransmits   uint64 // attempts beyond each first transmission
}

// send is one logical reliable send in flight. retry, the
// retransmission timer's callback, is bound once when the send is made,
// and every attempt re-arms it.
type send struct {
	id            uint64
	label         flow.Label
	build         func(txid uint64) *packet.Packet
	attempts, max int
	timer         sim.Timer // the pending retransmission
	retry         func()
}

// Ladder is the retransmission engine: it numbers logical sends,
// transmits each up to its attempt bound on an exponential-backoff
// schedule, and forgets it when cancelled or spent.
type Ladder struct {
	cfg    Config
	clk    Clock
	jitter func() float64 // uniform in [0, 1): a seeded source
	out    func(*packet.Packet)
	trace  Trace

	next uint64 // last txid handed out
	live map[uint64]*send

	sends, retransmits atomic.Uint64 // aitf:atomic
}

// NewLadder builds a ladder transmitting through out. jitter draws the
// backoff spread; pass a seeded source so runs replay. trace may be
// nil.
func NewLadder(cfg Config, clk Clock, jitter func() float64, out func(*packet.Packet), trace Trace) *Ladder {
	return &Ladder{cfg: cfg, clk: clk, jitter: jitter, out: out, trace: trace, live: make(map[uint64]*send)}
}

// Send transmits build(txid) now and retransmits it up to MaxAttempts
// in all. The txid passed to build is stable across attempts so that
// receivers can deduplicate. The returned token cancels the ladder; it
// is 0, and the send single-shot with txid 0, when retransmission is
// off.
func (l *Ladder) Send(label flow.Label, build func(txid uint64) *packet.Packet) uint64 {
	return l.send(label, build, l.cfg.MaxAttempts)
}

// SendBlind transmits build(txid) twice, one backoff apart, for the
// sends nothing acknowledges (handshake replies, relays, stop orders):
// a fixed redundant copy instead of a full ladder, absorbed by the
// receiver's dedup (or nonce match) when the first copy made it.
func (l *Ladder) SendBlind(label flow.Label, build func(txid uint64) *packet.Packet) {
	l.send(label, build, min(2, l.cfg.MaxAttempts))
}

func (l *Ladder) send(label flow.Label, build func(txid uint64) *packet.Packet, attempts int) uint64 {
	if !l.cfg.Enabled() {
		l.out(build(0))
		return 0
	}
	l.next++
	s := &send{id: l.next, label: label, build: build, max: attempts}
	s.retry = func() {
		if l.live[s.id] == s {
			l.transmit(s)
		}
	}
	l.live[s.id] = s
	l.sends.Add(1)
	l.transmit(s)
	return s.id
}

func (l *Ladder) transmit(s *send) {
	s.attempts++
	if s.attempts > 1 {
		l.retransmits.Add(1)
		if l.trace != nil {
			l.trace(obs.EvCtrlRetransmit, s.label, fmt.Sprintf("attempt %d/%d", s.attempts, s.max))
		}
	}
	l.out(s.build(s.id))
	if s.attempts >= s.max {
		// Budget spent: the ladder terminates unconditionally. Loss
		// recovery beyond this point falls to the protocol's own
		// periodic mechanisms (the victim's re-request cadence).
		delete(l.live, s.id)
		return
	}
	s.timer = l.clk.Arm(l.backoff(s.attempts), s.retry)
}

// backoff returns the delay before the attempt following attempt n:
// RTO·2^(n−1), scaled by 1 ± Jitter, and never under a millisecond.
func (l *Ladder) backoff(attempt int) time.Duration {
	d := l.cfg.RTO * (1 << (attempt - 1))
	if l.cfg.Jitter > 0 {
		f := 1 + l.cfg.Jitter*(2*l.jitter()-1)
		d = time.Duration(float64(d) * f)
	}
	return max(d, time.Millisecond)
}

// Cancel stops a ladder: its ack arrived, or its purpose lapsed.
// Unknown and zero tokens are no-ops.
func (l *Ladder) Cancel(tok uint64) {
	if s, ok := l.live[tok]; ok {
		l.clk.Stop(s.timer)
		delete(l.live, tok)
	}
}

// StopAll cancels every outstanding ladder (a crash or a halt).
func (l *Ladder) StopAll() {
	for tok := range l.live {
		l.Cancel(tok)
	}
}

// Outstanding returns how many sends still await an ack or their final
// attempt. Every ladder terminates, so it drains to zero.
func (l *Ladder) Outstanding() int { return len(l.live) }

// NextTxid returns the last txid handed out, for a snapshot.
func (l *Ladder) NextTxid() uint64 { return l.next }

// RestoreTxid continues a snapshot's txid sequence, so that sends after
// a restart cannot collide with earlier ones inside a receiver's dedup
// window. It never moves the sequence backwards.
func (l *Ladder) RestoreTxid(txid uint64) { l.next = max(l.next, txid) }

// Stats returns the ladder's counters; any goroutine may call it.
func (l *Ladder) Stats() Stats {
	return Stats{ReliableSends: l.sends.Load(), Retransmits: l.retransmits.Load()}
}

// RestoreStats loads counters carried across a restart.
func (l *Ladder) RestoreStats(s Stats) {
	l.sends.Store(s.ReliableSends)
	l.retransmits.Store(s.Retransmits)
}
