package core

import (
	"fmt"
	"sort"
	"time"

	"aitf/internal/contract"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// Detector classifies incoming traffic. Observe is called for every
// data packet a host receives; returning ok=true asks the host to
// request blocking of the returned label.
type Detector interface {
	Observe(now sim.Time, p *packet.Packet) (flow.Label, bool)
}

// DetectorFunc adapts a function to the Detector interface.
type DetectorFunc func(now sim.Time, p *packet.Packet) (flow.Label, bool)

// Observe implements Detector.
func (f DetectorFunc) Observe(now sim.Time, p *packet.Packet) (flow.Label, bool) {
	return f(now, p)
}

// HostConfig configures an AITF end-host.
type HostConfig struct {
	// Gateway is the host's AITF gateway — where filtering requests go.
	Gateway flow.Addr
	// Timers must match the gateway's (T drives request duration).
	Timers contract.Timers
	// Detector classifies undesired flows; nil hosts never complain.
	Detector Detector
	// Contract is the host's filtering contract with its provider;
	// R1 rate-limits the host's own outgoing filtering requests.
	Contract contract.Contract
	// Compliant hosts honour stop orders (§IV-D: a legitimate AITF
	// node must be provisioned to stop sending on request). Attackers
	// set this false and face disconnection.
	Compliant bool
	// ReRequestGap bounds how often the host re-reports a reappearing
	// flow it already asked to have blocked.
	ReRequestGap time.Duration
}

// DefaultHostConfig returns a compliant host with the paper's end-host
// contract. The detector must be set by the caller.
func DefaultHostConfig(gateway flow.Addr) HostConfig {
	return HostConfig{
		Gateway:      gateway,
		Timers:       contract.DefaultTimers(),
		Contract:     contract.DefaultEndHost(),
		Compliant:    true,
		ReRequestGap: 20 * time.Millisecond,
	}
}

// HostStats aggregates end-host counters.
type HostStats struct {
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
}

// wanted is a flow the host has asked to have blocked.
type wanted struct {
	label    flow.Label
	until    sim.Time
	evidence []packet.RREntry
	lastReq  sim.Time
}

// Host is an AITF end-host: it detects undesired flows and requests
// filtering (victim role), answers verification queries (§II-E), and
// honours or ignores stop orders (attacker role).
type Host struct {
	cfg HostConfig

	node    *netsim.Node
	tracer  Tracer
	policer *filter.Policer

	wantedFlows map[flow.Label]*wanted
	stopOrders  filter.StopOrders
	// seenTxids dedups retransmitted stop orders by (src, txid) so a
	// duplicate delivery does not double-count StopOrders or restart a
	// compliance window.
	seenTxids filter.Dedup

	// Meter observes all received data traffic (per-second buckets).
	Meter *Meter
	// PerSource tracks received bytes per source address, used by the
	// experiments to measure each flow's effective bandwidth.
	PerSource map[flow.Addr]*Meter

	stats HostStats
}

// NewHost builds a host handler; Attach binds it to a node.
func NewHost(cfg HostConfig) *Host {
	if cfg.ReRequestGap <= 0 {
		cfg.ReRequestGap = 20 * time.Millisecond
	}
	return &Host{
		cfg:         cfg,
		policer:     filter.NewPolicer(cfg.Contract.R1, cfg.Contract.R1Burst),
		wantedFlows: make(map[flow.Label]*wanted),
		Meter:       NewMeter(time.Second),
		PerSource:   make(map[flow.Addr]*Meter),
	}
}

// Attach binds the host to a netsim node and installs its handler.
func (h *Host) Attach(n *netsim.Node, tr Tracer) {
	h.node = n
	h.tracer = tr
	n.SetHandler(h)
}

// Node returns the bound netsim node.
func (h *Host) Node() *netsim.Node { return h.node }

// Stats returns a copy of the host's counters.
func (h *Host) Stats() HostStats { return h.stats }

// Config returns the host configuration.
func (h *Host) Config() HostConfig { return h.cfg }

func (h *Host) now() sim.Time { return h.node.Engine().Now() }

func (h *Host) trace(k obs.EventKind, f flow.Label, detail string) {
	if h.tracer != nil {
		h.tracer(obs.Record{At: h.now(), Node: h.node.Name(), Kind: k, Flow: f, Detail: detail})
	}
}

// Receive implements netsim.Handler. Delivered packets are NOT
// released back to the packet pool: simulator code (tests, detectors,
// traffic sources) may legitimately retain a packet it originated and
// inspect its accumulated route record after delivery, so ownership of
// a delivered packet stays with whoever holds references. Only the
// network's own drop points and the gateway data path, where the
// packet is provably dead, recycle shells.
func (h *Host) Receive(n *netsim.Node, p *packet.Packet, from *netsim.Iface) {
	if p.Dst != n.Addr() {
		return // hosts do not forward
	}
	if p.IsControl() {
		h.handleControl(p)
		return
	}
	h.handleData(p)
}

func (h *Host) handleData(p *packet.Packet) {
	now := h.now()
	h.stats.DataReceived++
	h.stats.BytesReceived += uint64(p.PayloadLen)
	h.Meter.Add(now, int(p.PayloadLen))
	src := h.PerSource[p.Src]
	if src == nil {
		src = NewMeter(time.Second)
		h.PerSource[p.Src] = src
	}
	src.Add(now, int(p.PayloadLen))

	// Instant re-detection (§IV-A.1 footnote 8): a packet matching a
	// flow we already asked to have blocked triggers an immediate
	// re-request, subject to the contract rate. A pair label is
	// canonical as built.
	if len(h.wantedFlows) > 0 {
		if w, ok := h.wantedFlows[flow.PairLabel(p.Src, p.Dst)]; ok && w.until > now {
			if now-w.lastReq >= sim.Time(h.cfg.ReRequestGap) {
				h.sendRequest(w.label, p.Path, w, true)
			}
			return
		}
	}

	if h.cfg.Detector == nil {
		return
	}
	if label, bad := h.cfg.Detector.Observe(now, p); bad {
		h.trace(obs.EvAttackDetected, label, fmt.Sprintf("from %v", p.Src))
		h.requestBlock(label, p.Path)
	}
}

// requestBlock files a new filtering request for label with the given
// route-record evidence.
func (h *Host) requestBlock(label flow.Label, evidence []packet.RREntry) {
	now := h.now()
	label = label.Canonical()
	w, ok := h.wantedFlows[label.Key()]
	if !ok {
		w = &wanted{label: label}
		h.wantedFlows[label.Key()] = w
	}
	w.until = now + sim.Time(h.cfg.Timers.T)
	if len(evidence) > 0 {
		w.evidence = append([]packet.RREntry(nil), evidence...)
	}
	h.sendRequest(label, evidence, w, false)
}

func (h *Host) sendRequest(label flow.Label, evidence []packet.RREntry, w *wanted, re bool) {
	now := h.now()
	if !h.policer.Allow(now) {
		h.stats.RequestsMuted++
		return
	}
	if len(evidence) == 0 {
		evidence = w.evidence
	}
	w.lastReq = now
	w.until = now + sim.Time(h.cfg.Timers.T)
	if re {
		h.stats.ReRequestsSent++
	} else {
		h.stats.RequestsSent++
	}
	h.trace(obs.EvRequestSent, label, fmt.Sprintf("to gateway %v", h.cfg.Gateway))
	h.node.Originate(packet.NewControl(h.node.Addr(), h.cfg.Gateway, &packet.FilterReq{
		Stage:    packet.StageToVictimGW,
		Flow:     label,
		Duration: h.cfg.Timers.T,
		Round:    1,
		Victim:   h.node.Addr(),
		Evidence: append([]packet.RREntry(nil), evidence...),
	}))
}

func (h *Host) handleControl(p *packet.Packet) {
	now := h.now()
	switch m := p.Msg.(type) {
	case *packet.VerifyQuery:
		// Answer only for flows we genuinely asked to have blocked; a
		// forged request for anyone else's traffic dies here (§II-E).
		key := m.Flow.Canonical().Key()
		if w, ok := h.wantedFlows[key]; ok && w.until > now {
			h.stats.QueriesAnswered++
			h.trace(obs.EvHandshakeReply, m.Flow, fmt.Sprintf("to %v", p.Src))
			h.node.Originate(packet.NewControl(h.node.Addr(), p.Src,
				&packet.VerifyReply{Flow: m.Flow, Nonce: m.Nonce}))
		}
	case *packet.FilterReq:
		if m.Stage != packet.StageToAttacker {
			return
		}
		if p.Src != h.cfg.Gateway {
			return // only our own provider may order us to stop
		}
		if h.seenTxids.Seen(p.Src, m.Txid, now, filter.DedupWindow) {
			h.stats.CtrlDupDrops++
			return
		}
		h.stats.StopOrders++
		h.trace(obs.EvStopOrder, m.Flow, "received")
		if h.cfg.Compliant {
			h.stopOrders.Add(m.Flow, now+sim.Time(m.Duration))
			h.trace(obs.EvFlowStopped, m.Flow, "complying")
		}
	case *packet.Disconnect:
		h.stats.Disconnected++
		h.trace(obs.EvDisconnected, m.Flow, fmt.Sprintf("by provider for %v", m.Penalty))
	}
}

// SendData originates a data packet, honouring live stop orders when
// the host is compliant. Traffic generators must send through this.
// It reports whether the packet entered the network.
func (h *Host) SendData(p *packet.Packet) bool {
	if h.cfg.Compliant && h.blockedByStopOrder(p.Tuple()) {
		h.stats.StoppedSends++
		p.Release() // suppressed before entering the network; recycle
		return false
	}
	return h.node.Originate(p)
}

func (h *Host) blockedByStopOrder(tup flow.Tuple) bool {
	return h.stopOrders.Blocks(tup, h.now())
}

// ActiveStopOrders counts live stop orders — the filters the *client*
// must hold per §IV-D (na = R2·T).
func (h *Host) ActiveStopOrders() int { return h.stopOrders.Active(h.now()) }

// Wants reports whether the host currently wants label blocked.
func (h *Host) Wants(label flow.Label) bool {
	w, ok := h.wantedFlows[label.Canonical().Key()]
	return ok && w.until > h.now()
}

// Meter accumulates a host's received byte count on the virtual clock
// and exposes average bandwidth over the interval it was observed. It
// also keeps per-window buckets so tests can examine the time profile
// of a flow (e.g. on-off bursts).
type Meter struct {
	start   sim.Time
	end     sim.Time
	started bool

	Bytes   uint64
	Packets uint64

	window  sim.Time
	buckets map[int64]uint64
}

// NewMeter creates a meter that additionally tracks per-window byte
// buckets of the given width; width 0 disables bucketing.
func NewMeter(window sim.Time) *Meter {
	return &Meter{window: window, buckets: make(map[int64]uint64)}
}

// Add records n payload bytes observed at time now.
func (m *Meter) Add(now sim.Time, n int) {
	if !m.started {
		m.start = now
		m.started = true
	}
	if now > m.end {
		m.end = now
	}
	m.Bytes += uint64(n)
	m.Packets++
	if m.window > 0 {
		m.buckets[int64(now/m.window)] += uint64(n)
	}
}

// First returns the time of the first observation.
func (m *Meter) First() sim.Time { return m.start }

// Last returns the time of the last observation.
func (m *Meter) Last() sim.Time { return m.end }

// Idle reports whether the meter never saw traffic.
func (m *Meter) Idle() bool { return !m.started }

// BandwidthOver returns average bytes/second across an externally
// chosen horizon (e.g. the whole experiment), which is the "effective
// bandwidth ... actually experienced by the victim" of §IV-A.1.
func (m *Meter) BandwidthOver(horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(m.Bytes) / horizon.Seconds()
}

// Buckets returns (windowIndex, bytes) pairs sorted by window.
func (m *Meter) Buckets() []Bucket {
	out := make([]Bucket, 0, len(m.buckets))
	for k, v := range m.buckets {
		out = append(out, Bucket{Index: k, Bytes: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// ActiveWindows counts windows with any traffic; for an on-off flow it
// approximates the number of "on" bursts × burst length / window.
func (m *Meter) ActiveWindows() int { return len(m.buckets) }

// Bucket is one fixed-width measurement window.
type Bucket struct {
	Index int64
	Bytes uint64
}
