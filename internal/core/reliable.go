package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// ControlConfig tunes the reliable control-plane messenger: AITF's
// signaling crosses the very links the attack is congesting, so a
// single-shot send can silently lose a filtering request, a handshake
// leg, or a stop order. The messenger retransmits each logical send
// with exponential backoff until it is acknowledged (cancelled by the
// protocol layer) or the attempt budget runs out.
//
// The zero value disables retransmission entirely — every send is
// single-shot, byte-identical to the pre-messenger behaviour.
type ControlConfig struct {
	// MaxAttempts bounds total transmissions per logical send (the
	// first attempt plus retransmissions). Values <= 1 disable the
	// messenger.
	MaxAttempts int
	// RTO is the first retransmission timeout; it doubles per attempt.
	RTO time.Duration
	// Jitter, in [0, 1], randomizes each backoff by ±Jitter·delay
	// (seeded from the simulation engine, so runs stay deterministic).
	Jitter float64
}

// Enabled reports whether the configuration arms the messenger.
func (c ControlConfig) Enabled() bool { return c.MaxAttempts > 1 && c.RTO > 0 }

// relSend is one logical reliable send in flight.
type relSend struct {
	id          uint64
	label       flow.Label
	build       func(txid uint64) *packet.Packet
	attempts    int
	maxAttempts int
	timer       *sim.Event
}

// messenger is the retransmission engine. It runs entirely on the
// simulator event loop (no locks) and draws jitter from the engine's
// seeded source, so fault schedules replay exactly.
type messenger struct {
	g           *Gateway
	cfg         ControlConfig
	nextID      uint64
	outstanding map[uint64]*relSend
}

func newMessenger(g *Gateway, cfg ControlConfig) *messenger {
	return &messenger{g: g, cfg: cfg, outstanding: make(map[uint64]*relSend)}
}

// send transmits build(txid) now and schedules retransmissions until
// cancel or the attempt budget is spent. The returned token cancels
// the ladder; the txid passed to build is stable across attempts, so
// receivers can deduplicate.
func (m *messenger) send(label flow.Label, build func(txid uint64) *packet.Packet) uint64 {
	return m.sendN(label, build, m.cfg.MaxAttempts)
}

// sendN is send with a custom attempt bound. The blind VerifyReply
// redundancy uses 2: the reply is the only handshake leg with no
// acknowledgement to trigger on, so it gets fixed redundancy instead
// of a full ladder.
func (m *messenger) sendN(label flow.Label, build func(txid uint64) *packet.Packet, maxAttempts int) uint64 {
	m.nextID++
	s := &relSend{id: m.nextID, label: label, build: build, maxAttempts: maxAttempts}
	m.outstanding[s.id] = s
	atomic.AddUint64(&m.g.stats.CtrlReliableSends, 1)
	m.transmit(s)
	return s.id
}

func (m *messenger) transmit(s *relSend) {
	s.attempts++
	if s.attempts > 1 {
		atomic.AddUint64(&m.g.stats.CtrlRetransmits, 1)
		m.g.trace(obs.EvCtrlRetransmit, s.label, fmt.Sprintf("attempt %d/%d", s.attempts, s.maxAttempts))
	}
	m.g.node.Originate(s.build(s.id))
	if s.attempts >= s.maxAttempts {
		// Budget spent: the ladder terminates unconditionally. Loss
		// recovery beyond this point falls to the protocol's own
		// periodic mechanisms (the victim's re-request cadence).
		delete(m.outstanding, s.id)
		return
	}
	s.timer = m.g.node.Engine().Schedule(m.backoff(s.attempts), func() {
		if m.outstanding[s.id] == s {
			m.transmit(s)
		}
	})
}

// backoff returns the delay before the attempt following attempt n:
// RTO·2^(n−1), jittered by ±Jitter.
func (m *messenger) backoff(attempt int) sim.Time {
	d := sim.Time(m.cfg.RTO) * (1 << (attempt - 1))
	if m.cfg.Jitter > 0 {
		f := 1 + m.cfg.Jitter*(2*m.g.node.Engine().Rand().Float64()-1)
		d = sim.Time(float64(d) * f)
	}
	if d < sim.Time(time.Millisecond) {
		d = sim.Time(time.Millisecond)
	}
	return d
}

// cancel stops a ladder (the ack arrived, or its purpose lapsed).
// Unknown and zero tokens are no-ops.
func (m *messenger) cancel(id uint64) {
	s, ok := m.outstanding[id]
	if !ok {
		return
	}
	if s.timer != nil {
		s.timer.Cancel()
	}
	delete(m.outstanding, id)
}

// stopAll cancels every outstanding ladder (crash/halt).
func (m *messenger) stopAll() {
	for id, s := range m.outstanding {
		if s.timer != nil {
			s.timer.Cancel()
		}
		delete(m.outstanding, id)
	}
}

// reliableSend routes a protocol send through the messenger when it is
// armed, or transmits once when it is not. Returns the cancel token
// (0 when no ladder was armed).
func (g *Gateway) reliableSend(label flow.Label, build func(txid uint64) *packet.Packet) uint64 {
	if g.msgr == nil {
		g.node.Originate(build(0))
		return 0
	}
	return g.msgr.send(label, build)
}

// reliableReply transmits a handshake reply with blind bounded
// redundancy (2 attempts) when the messenger is armed: there is no
// ack to cancel on, and the querier's own retransmissions already
// cover repeated loss.
func (g *Gateway) reliableReply(label flow.Label, build func() *packet.Packet) {
	if g.msgr == nil {
		g.node.Originate(build())
		return
	}
	n := 2
	if n > g.msgr.cfg.MaxAttempts {
		n = g.msgr.cfg.MaxAttempts
	}
	g.msgr.sendN(label, func(uint64) *packet.Packet { return build() }, n)
}

// cancelReliable cancels a ladder by token; 0 tokens are no-ops.
func (g *Gateway) cancelReliable(tok uint64) {
	if tok != 0 && g.msgr != nil {
		g.msgr.cancel(tok)
	}
}

// OutstandingReliable returns how many reliable sends are still
// awaiting an ack or their final attempt (0 when the messenger is
// off). The chaos invariants assert this drains to zero: every ladder
// terminates.
func (g *Gateway) OutstandingReliable() int {
	if g.msgr == nil {
		return 0
	}
	return len(g.msgr.outstanding)
}

// PendingHandshakes returns the attacker-side handshakes awaiting
// their verification reply, for the accounting balance
// HandshakesStarted == HandshakesOK + HandshakesFailed + pending.
func (g *Gateway) PendingHandshakes() int { return len(g.pendings) }

// dedupWindow is how long a (src, txid) stays remembered by a
// receiver's filter.Dedup — comfortably past the longest
// retransmission ladder.
const dedupWindow = 3 * time.Second
