// Package endhost is the end host's side of AITF, written once for
// both runtimes: it asks its gateway to block the flows its Detector
// flags and asks again while a flow persists (§II-C, §IV-A.1), answers
// the verification query only for flows it really asked about (§II-E),
// and obeys or ignores stop orders (§IV-D). An Engine reads no clock
// and does no I/O; core.Host and wire.Host feed it and drain its Out.
package endhost

import (
	"time"

	"aitf/internal/contract"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
)

// DefaultReRequestGap is how often, at most, a host re-reports a flow
// whose packets keep arriving while its request is live.
const DefaultReRequestGap = 20 * time.Millisecond

// Detector sees each data packet the host receives outside a live
// request; ok=true asks the host to request blocking of the label.
type Detector interface {
	Observe(now time.Duration, p *packet.Packet) (flow.Label, bool)
}

// Config configures an Engine.
type Config struct {
	Gateway  flow.Addr       // where requests go; the only sender of stop orders
	Timers   contract.Timers // T is every request's duration
	Detector Detector        // nil hosts never complain
	// Contract, when set, arms the host's own R1 policer on its
	// requests and mutes the excess; nil leaves that to the gateway.
	Contract     *contract.Contract
	Compliant    bool          // honour stop orders
	ReRequestGap time.Duration // 0 means DefaultReRequestGap
}

// Stats are an Engine's counters.
type Stats struct {
	DataReceived    uint64
	BytesReceived   uint64
	RequestsSent    uint64
	ReRequestsSent  uint64
	RequestsMuted   uint64 // suppressed by the host's own R1 policer
	QueriesAnswered uint64
	StopOrders      uint64
	StoppedSends    uint64 // own packets suppressed by compliance
	Disconnected    uint64 // Disconnect notices received
	CtrlDupDrops    uint64 // duplicate stop-order deliveries suppressed
	WantedEvicted   uint64 // live requests forgotten at MaxWanted
}

// Out collects what one input makes the host do: records (only when
// Trace is set; the caller fills Node), then control packets to send.
// The caller emits the records before the sends, then calls Reset.
//
// aitf:packetowner — holds each send from the call that builds it until
// the caller takes it, to originate or release.
type Out struct {
	Trace   bool
	Records []obs.Record
	Sends   []*packet.Packet
}

// Reset empties both slices, keeping their storage.
func (o *Out) Reset() {
	clear(o.Records)
	clear(o.Sends)
	o.Records, o.Sends = o.Records[:0], o.Sends[:0]
}

// record appends a record when tracing; callers that format a detail
// check Trace first, so an untraced host formats nothing.
func (o *Out) record(now time.Duration, kind obs.EventKind, label flow.Label, detail string) {
	if o.Trace {
		o.Records = append(o.Records, obs.Record{At: now, Kind: kind, Flow: label, Detail: detail})
	}
}

// Engine is one end host's protocol state. Calls must pass
// nondecreasing times.
type Engine struct {
	cfg     Config
	policer *filter.Policer // nil without a contract
	wanted  wantedTable
	stops   filter.StopOrders
	dedup   filter.Dedup // absorbs retransmitted stop orders
	stats   Stats
}

// New builds an engine, by value so that an adapter can hold it in
// place.
func New(cfg Config) Engine {
	if cfg.ReRequestGap <= 0 {
		cfg.ReRequestGap = DefaultReRequestGap
	}
	e := Engine{cfg: cfg, wanted: wantedTable{first: -1, last: -1}}
	if cfg.Contract != nil {
		e.policer = filter.NewPolicer(cfg.Contract.R1, cfg.Contract.R1Burst)
	}
	return e
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.WantedEvicted = e.wanted.evicted
	return s
}

// Data takes a data packet delivered to the host at now. A packet of a
// flow whose request is live files a re-request, at most once per
// ReRequestGap (§IV-A.1: the victim re-detects a reappearing flow at
// once), and is not shown to the Detector. Once the request has
// lapsed, the Detector decides again.
func (e *Engine) Data(now time.Duration, p *packet.Packet, out *Out) {
	e.stats.DataReceived++
	e.stats.BytesReceived += uint64(p.PayloadLen)
	// A pair label is canonical as built.
	if w := e.wanted.live(flow.PairLabel(p.Src, p.Dst), now); w != nil {
		if now-w.lastReq >= e.cfg.ReRequestGap {
			e.request(now, p, w, true, out)
		}
		return
	}
	if e.cfg.Detector == nil {
		return
	}
	label, bad := e.cfg.Detector.Observe(now, p)
	if !bad {
		return
	}
	if out.Trace {
		out.record(now, obs.EvAttackDetected, label, "from "+p.Src.String())
	}
	label = label.Canonical()
	w := e.wanted.get(label)
	if w == nil {
		w = e.wanted.add(label, now)
	}
	e.wanted.extend(w, now+e.cfg.Timers.T)
	e.request(now, p, w, false, out)
}

// request files a filtering request for w with p's route record as
// evidence. Every AITF gateway stamps each data packet it forwards, so
// a packet delivered behind one always carries a record.
func (e *Engine) request(now time.Duration, p *packet.Packet, w *wanted, re bool, out *Out) {
	if e.policer != nil && !e.policer.Allow(now) {
		e.stats.RequestsMuted++
		return
	}
	w.lastReq = now
	e.wanted.extend(w, now+e.cfg.Timers.T)
	if re {
		e.stats.ReRequestsSent++
	} else {
		e.stats.RequestsSent++
	}
	if out.Trace {
		out.record(now, obs.EvRequestSent, w.label, "to gateway "+e.cfg.Gateway.String())
	}
	out.Sends = append(out.Sends, packet.NewControl(p.Dst, e.cfg.Gateway, &packet.FilterReq{
		Stage:    packet.StageToVictimGW,
		Flow:     w.label,
		Duration: e.cfg.Timers.T,
		Round:    1,
		Victim:   p.Dst,
		Evidence: append([]packet.RREntry(nil), p.Path...),
	}))
}

// Control takes a control packet addressed to the host at now.
func (e *Engine) Control(now time.Duration, p *packet.Packet, out *Out) {
	switch m := p.Msg.(type) {
	case *packet.VerifyQuery:
		// A forged request for anyone else's traffic dies here (§II-E).
		if !e.Wants(now, m.Flow) {
			return
		}
		e.stats.QueriesAnswered++
		if out.Trace {
			out.record(now, obs.EvHandshakeReply, m.Flow, "to "+p.Src.String())
		}
		out.Sends = append(out.Sends, packet.NewControl(p.Dst, p.Src,
			&packet.VerifyReply{Flow: m.Flow, Nonce: m.Nonce}))
	case *packet.FilterReq:
		if m.Stage != packet.StageToAttacker || p.Src != e.cfg.Gateway {
			return // only our own provider may order us to stop
		}
		if e.dedup.Seen(p.Src, m.Txid, now, filter.DedupWindow) {
			e.stats.CtrlDupDrops++
			return
		}
		e.stats.StopOrders++
		out.record(now, obs.EvStopOrder, m.Flow, "received")
		if e.cfg.Compliant {
			e.stops.Add(m.Flow, now+m.Duration)
			out.record(now, obs.EvFlowStopped, m.Flow, "complying")
		}
	case *packet.Disconnect:
		e.stats.Disconnected++
		if out.Trace {
			out.record(now, obs.EvDisconnected, m.Flow, "by provider for "+m.Penalty.String())
		}
	}
}

// MaySend reports whether the host may send a packet of t at now. A
// compliant host withholds what a live stop order covers, and counts it.
func (e *Engine) MaySend(now time.Duration, t flow.Tuple) bool {
	if e.cfg.Compliant && e.stops.Blocks(t, now) {
		e.stats.StoppedSends++
		return false
	}
	return true
}

// ActiveStopOrders counts the stop orders live at now: the filters a
// client must hold per §IV-D (na = R2·T).
func (e *Engine) ActiveStopOrders(now time.Duration) int { return e.stops.Active(now) }

// Wants reports whether the host's request to block label is live at
// now.
func (e *Engine) Wants(now time.Duration, label flow.Label) bool {
	return e.wanted.live(label.Canonical(), now) != nil
}
