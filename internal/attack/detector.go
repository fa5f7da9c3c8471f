package attack

import (
	"time"

	"aitf/internal/core"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// RateDetector flags a source as undesired once its received rate
// exceeds Threshold bytes/second measured over Window. It is the
// victim-side classifier the paper assumes exists ("we start from the
// point where the node has identified the undesired flows", §V) —
// an *oracle*: it keeps exact per-source state, so its memory grows
// with the number of sources and its latency is a model parameter,
// not a measured one. The production counterpart is internal/detect's
// sketch-based engine, which measures in memory that grows with the
// cells and keys the traffic touches, up to a configured bound, and
// makes detection latency, false positives and false negatives
// emergent;
// the scenario harness swaps between the two behind Spec.Detector to
// quantify what assuming an oracle hides.
type RateDetector struct {
	// Threshold is the classification rate in bytes/second.
	Threshold float64
	// Window is the measurement window.
	Window sim.Time
	// Whitelist sources are never flagged (the victim's known-good
	// peers), regardless of rate.
	Whitelist map[flow.Addr]bool

	flows map[flow.Addr]*rateState
}

type rateState struct {
	windowStart sim.Time
	bytes       float64
	flagged     bool
}

// NewRateDetector builds a detector with the given threshold and window.
func NewRateDetector(thresholdBps float64, window sim.Time) *RateDetector {
	return &RateDetector{
		Threshold: thresholdBps,
		Window:    window,
		Whitelist: make(map[flow.Addr]bool),
		flows:     make(map[flow.Addr]*rateState),
	}
}

// Observe implements core.Detector. A flow whose bytes within the
// current window exceed Threshold·Window is flagged once; the flag
// re-arms if the flow is later re-observed after going quiet for a
// full window (so re-detections of on-off flows also work when the
// victim's wanted-set has expired).
func (d *RateDetector) Observe(now sim.Time, p *packet.Packet) (flow.Label, bool) {
	if d.Whitelist[p.Src] {
		return flow.Label{}, false
	}
	st := d.flows[p.Src]
	if st == nil {
		st = &rateState{windowStart: now}
		d.flows[p.Src] = st
	}
	if now-st.windowStart >= d.Window {
		// New window; a quiet gap also clears the flag.
		if now-st.windowStart >= 2*d.Window {
			st.flagged = false
		}
		st.windowStart = now
		st.bytes = 0
	}
	st.bytes += float64(p.PayloadLen)
	if st.flagged {
		return flow.Label{}, false
	}
	if st.bytes > d.Threshold*d.Window.Seconds() {
		st.flagged = true
		return flow.PairLabel(p.Src, p.Dst), true
	}
	return flow.Label{}, false
}

// DelayDetector flags every non-whitelisted source exactly Td after its
// first packet arrives — the deterministic "detection takes Td" model
// used to validate the §IV-A.1 formula, where Td is a parameter. A
// source that goes quiet for QuietReset re-arms and will be flagged
// again Td after it resumes.
type DelayDetector struct {
	// Td is the detection delay.
	Td sim.Time
	// QuietReset re-arms the detector for a source after this much
	// silence; 0 disables re-arming (one-shot).
	QuietReset sim.Time
	// Whitelist sources are never flagged.
	Whitelist map[flow.Addr]bool

	flows map[flow.Addr]*delayState
}

type delayState struct {
	first sim.Time
	last  sim.Time
	done  bool
}

// NewDelayDetector builds a detector with a fixed detection delay and a
// 2-second quiet reset.
func NewDelayDetector(td sim.Time) *DelayDetector {
	return &DelayDetector{
		Td:         td,
		QuietReset: 2 * time.Second,
		Whitelist:  make(map[flow.Addr]bool),
		flows:      make(map[flow.Addr]*delayState),
	}
}

// Observe implements core.Detector.
func (d *DelayDetector) Observe(now sim.Time, p *packet.Packet) (flow.Label, bool) {
	if d.Whitelist[p.Src] {
		return flow.Label{}, false
	}
	st := d.flows[p.Src]
	if st == nil {
		st = &delayState{first: now, last: now}
		d.flows[p.Src] = st
	}
	if d.QuietReset > 0 && now-st.last >= d.QuietReset {
		st.first = now
		st.done = false
	}
	st.last = now
	if st.done {
		return flow.Label{}, false
	}
	if now-st.first >= d.Td {
		st.done = true
		return flow.PairLabel(p.Src, p.Dst), true
	}
	return flow.Label{}, false
}

var _ core.Detector = (*RateDetector)(nil)
var _ core.Detector = (*DelayDetector)(nil)

// Forger is the malicious requester of experiment E7: a compromised
// node that sends forged filtering requests trying to cut the traffic
// between two other nodes (§II-E). It never sees the A→V path, so it
// must invent (or replay stale) route-record evidence.
type Forger struct {
	// Node is the compromised host the forgeries originate from.
	Node *core.Host
	// TargetGW is the gateway the forged request is addressed to
	// (posing as a victim's gateway propagating a request).
	TargetGW flow.Addr
	// Flow is the legitimate flow the forger wants blocked.
	Flow flow.Label
	// Victim is the flow's receiver, named in the forged request.
	Victim flow.Addr
	// Evidence is the fabricated route record presented as proof.
	Evidence []packet.RREntry

	Sent uint64
}

// FireAt schedules one forged StageToAttackerGW request at time t.
func (f *Forger) FireAt(t sim.Time) {
	eng := f.Node.Node().Engine()
	eng.ScheduleAt(t, func() {
		req := &packet.FilterReq{
			Stage:    packet.StageToAttackerGW,
			Flow:     f.Flow,
			Duration: f.Node.Config().Timers.T,
			Round:    1,
			Victim:   f.Victim,
			Evidence: f.Evidence,
		}
		f.Sent++
		f.Node.Node().Originate(packet.NewControl(f.Node.Node().Addr(), f.TargetGW, req))
	})
}

// RequestFlood floods a gateway with filtering requests (experiment
// E9): rate requests/second of distinct labels from one host.
type RequestFlood struct {
	From *core.Host
	// Gateway is the target of the requests.
	Gateway flow.Addr
	// Rate is requests per second.
	Rate float64
	// Count is the total number of requests to send.
	Count int
	// Start anchors the flood.
	Start sim.Time
	// Victim is the claimed victim (the sender itself for plausible
	// requests).
	Victim flow.Addr
	// MakeEvidence fabricates per-request evidence; nil sends none.
	MakeEvidence func(i int) []packet.RREntry

	Sent uint64
}

// Launch schedules the request flood. It fixes every request's
// (at, seq) order key at once, reserving a block of seqs, but keeps
// only the next request queued: each posts its successor under that
// successor's reserved key, so the requests fire exactly where one
// event per request armed at launch would fire them, with one event
// pending at a time.
func (rf *RequestFlood) Launch() {
	if rf.Rate <= 0 || rf.Count <= 0 {
		return
	}
	eng := rf.From.Node().Engine()
	r := &requestRun{rf: rf, eng: eng, gap: sim.Time(1e9 / rf.Rate), from: eng.Now()}
	r.seq = eng.ReserveSeqs(uint64(rf.Count))
	r.fire = r.send
	eng.PostReserved(r.at(0), r.seq, r.fire)
}

// requestRun is one launched RequestFlood: the next request to send,
// and the order keys the launch fixed.
type requestRun struct {
	rf   *RequestFlood
	eng  *sim.Engine
	gap  sim.Time
	from sim.Time // the launch instant: no request fires before it
	seq  uint64   // the first reserved seq; request i fires under seq+i
	next int
	fire func() // send, bound once
}

// at is request i's fire time: its slot in the flood, or the launch
// instant for a flood that started in the past.
func (r *requestRun) at(i int) sim.Time {
	return max(r.rf.Start+r.gap*sim.Time(i), r.from)
}

// send sends the next request and posts the one after it.
func (r *requestRun) send() {
	rf, i := r.rf, r.next
	r.next++
	if r.next < rf.Count {
		r.eng.PostReserved(r.at(r.next), r.seq+uint64(r.next), r.fire)
	}
	var ev []packet.RREntry
	if rf.MakeEvidence != nil {
		ev = rf.MakeEvidence(i)
	}
	req := &packet.FilterReq{
		Stage:    packet.StageToVictimGW,
		Flow:     flow.PairLabel(flow.Addr(0xC0000000+uint32(i)), rf.Victim),
		Duration: rf.From.Config().Timers.T,
		Round:    1,
		Victim:   rf.Victim,
		Evidence: ev,
	}
	rf.Sent++
	rf.From.Node().Originate(packet.NewControl(rf.From.Node().Addr(), rf.Gateway, req))
}
