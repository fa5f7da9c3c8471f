package ctrl

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// Pending is one attacker-side handshake awaiting its verification
// reply, with the deadline (on the Clock) its timeout fires at. It is
// also the snapshot form.
type Pending struct {
	Req      packet.FilterReq
	Nonce    uint64
	Deadline time.Duration
}

// LedgerStats are a Ledger's counters. Every handshake started is
// resolved OK, resolved failed, or still pending:
// Started == OK + Failed + Ledger.Pending().
type LedgerStats struct {
	Started, OK, Failed uint64
}

// pending is a live handshake: its query ladder and its timeout.
type pending struct {
	Pending
	tok   uint64
	timer sim.Timer
}

// Ledger is the attacker-side half of the §II-E three-way handshake: a
// filtering request naming this gateway as the attacker's is verified
// by a query, carrying a fresh nonce, to the claimed victim, and only a
// reply echoing the nonce before the deadline completes it. The gateway
// decides what a completed handshake does and draws the nonces; the
// ledger keeps the books.
type Ledger struct {
	ladder  *Ladder
	clk     Clock
	timeout time.Duration
	trace   Trace

	pendings map[flow.Label]*pending // by the flow's Key()

	started, ok, failed atomic.Uint64 // aitf:atomic
}

// NewLedger builds a ledger whose queries ride ladder and whose
// handshakes fail timeout after they start. trace may be nil.
func NewLedger(ladder *Ladder, clk Clock, timeout time.Duration, trace Trace) *Ledger {
	return &Ledger{ladder: ladder, clk: clk, timeout: timeout, trace: trace, pendings: make(map[flow.Label]*pending)}
}

// Start opens a handshake for req (whose flow is label) with the given
// nonce: a handshake still pending for the flow fails, superseded, the
// query goes out on the ladder, and the timeout is armed.
func (h *Ledger) Start(label flow.Label, req *packet.FilterReq, nonce uint64) {
	if prev, ok := h.pendings[label.Key()]; ok {
		// The newer request replaces the nonce, so the old handshake can
		// never succeed now; close its books as a failure rather than
		// leak one started-but-never-resolved handshake.
		h.drop(label, prev)
		h.failed.Add(1)
		h.trace.emit(obs.EvHandshakeFailed, label, "superseded by a newer request")
	}
	h.started.Add(1)
	if h.trace != nil {
		h.trace(obs.EvHandshakeQuery, label, fmt.Sprintf("to victim %v", req.Victim))
	}
	h.arm(label, *req, nonce, h.clk.Now()+h.timeout)
}

// arm registers a handshake, sends its query and arms its timeout.
func (h *Ledger) arm(label flow.Label, req packet.FilterReq, nonce uint64, deadline time.Duration) {
	p := &pending{Pending: Pending{Req: req, Nonce: nonce, Deadline: deadline}}
	h.pendings[label.Key()] = p
	victim, mflow := req.Victim, req.Flow
	p.tok = h.ladder.Send(label, func(uint64) *packet.Packet {
		// The nonce is the dedup identity here: a duplicate query only
		// elicits another (idempotent) reply, so no txid is needed. The
		// transport stamps the source.
		return packet.NewControl(0, victim, &packet.VerifyQuery{Flow: mflow, Nonce: nonce})
	})
	p.timer = h.clk.Arm(deadline-h.clk.Now(), func() {
		if h.pendings[label.Key()] == p {
			h.drop(label, p)
			h.failed.Add(1)
			h.trace.emit(obs.EvHandshakeFailed, label, "verification query timed out")
		}
	})
}

// drop forgets a handshake, stopping its timeout and its query ladder.
func (h *Ledger) drop(label flow.Label, p *pending) {
	h.clk.Stop(p.timer)
	h.ladder.Cancel(p.tok)
	delete(h.pendings, label.Key())
}

// Reply completes the handshake for label when nonce matches its
// query's, reporting whether it did. A stale, duplicate, unsolicited or
// forged reply changes nothing.
func (h *Ledger) Reply(label flow.Label, nonce uint64) bool {
	p, ok := h.pendings[label.Key()]
	if !ok || p.Nonce != nonce {
		return false
	}
	h.drop(label, p)
	h.ok.Add(1)
	return true
}

// Pending returns how many handshakes await their reply.
func (h *Ledger) Pending() int { return len(h.pendings) }

// Export returns the pending handshakes, sorted by flow so that a
// snapshot taken inside a seeded simulation replays.
func (h *Ledger) Export() []Pending {
	var out []Pending
	for _, p := range h.pendings {
		out = append(out, p.Pending)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Req.Flow.String() < out[j].Req.Flow.String() })
	return out
}

// Adopt re-opens snapshotted handshakes: each one still inside its
// window re-issues its query with the original nonce (the reply may
// have been lost while the gateway was down, and a duplicate reply is
// harmless) and keeps its original deadline; one whose window lapsed
// during the outage fails. Restore the counters first.
func (h *Ledger) Adopt(ps []Pending) {
	now := h.clk.Now()
	for _, p := range ps {
		label := p.Req.Flow.Canonical()
		if p.Deadline <= now {
			h.failed.Add(1)
			h.trace.emit(obs.EvHandshakeFailed, label, "handshake window lapsed during outage")
			continue
		}
		h.arm(label, p.Req, p.Nonce, p.Deadline)
	}
}

// StopAll cancels every handshake timeout (a crash or a halt); the
// handshakes stay on the books for a snapshot.
func (h *Ledger) StopAll() {
	for _, p := range h.pendings {
		h.clk.Stop(p.timer)
	}
}

// Stats returns the ledger's counters; any goroutine may call it.
func (h *Ledger) Stats() LedgerStats {
	return LedgerStats{Started: h.started.Load(), OK: h.ok.Load(), Failed: h.failed.Load()}
}

// RestoreStats loads counters carried across a restart.
func (h *Ledger) RestoreStats(s LedgerStats) {
	h.started.Store(s.Started)
	h.ok.Store(s.OK)
	h.failed.Store(s.Failed)
}
