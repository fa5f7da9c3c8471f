package core

import (
	"sort"
	"time"

	"aitf/internal/contract"
	"aitf/internal/endhost"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// Detector classifies incoming traffic; see endhost.Detector.
type Detector = endhost.Detector

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
	// flow it already asked to have blocked; 0 means
	// endhost.DefaultReRequestGap.
	ReRequestGap time.Duration
}

// DefaultHostConfig returns a compliant host with the paper's end-host
// contract. The detector must be set by the caller.
func DefaultHostConfig(gateway flow.Addr) HostConfig {
	return HostConfig{
		Gateway:   gateway,
		Timers:    contract.DefaultTimers(),
		Contract:  contract.DefaultEndHost(),
		Compliant: true,
	}
}

// Host is an AITF end-host on a netsim node: the shared end-host
// engine (endhost.Engine) fed from the node's deliveries, plus the
// receive meters the experiments read.
type Host struct {
	cfg HostConfig
	eng endhost.Engine
	out endhost.Out

	node   *netsim.Node
	tracer Tracer

	// Meter observes all received data traffic (per-second buckets).
	Meter *Meter
	// PerSource tracks received bytes per source address, used by the
	// experiments to measure each flow's effective bandwidth. It is nil
	// until the host's first data delivery; a zombie never receives.
	PerSource map[flow.Addr]*Meter
}

// NewHost builds a host handler; Attach binds it to a node.
func NewHost(cfg HostConfig) *Host {
	h := &Host{cfg: cfg, Meter: NewMeter(time.Second)}
	h.eng = endhost.New(endhost.Config{
		Gateway:      cfg.Gateway,
		Timers:       cfg.Timers,
		Detector:     cfg.Detector,
		Contract:     &h.cfg.Contract,
		Compliant:    cfg.Compliant,
		ReRequestGap: cfg.ReRequestGap,
	})
	return h
}

// Attach binds the host to a netsim node and installs its handler.
func (h *Host) Attach(n *netsim.Node, tr Tracer) {
	h.node = n
	h.tracer = tr
	h.out.Trace = tr != nil
	n.SetHandler(h)
}

// Node returns the bound netsim node.
func (h *Host) Node() *netsim.Node { return h.node }

// Stats returns a copy of the host's counters.
func (h *Host) Stats() endhost.Stats { return h.eng.Stats() }

// Config returns the host configuration.
func (h *Host) Config() HostConfig { return h.cfg }

func (h *Host) now() sim.Time { return h.node.Engine().Now() }

// Receive implements netsim.Handler. The host is the packet's consumer
// and releases it to the packet pool, as wire.Host does: the engine and
// the meters keep field values only (a filtering request copies the
// route record into its evidence). Code that wants a delivered
// packet's route record copies it in a handler of its own before
// delegating here.
func (h *Host) Receive(n *netsim.Node, p *packet.Packet, from *netsim.Iface) {
	if p.Dst != n.Addr() {
		p.Release() // hosts do not forward
		return
	}
	now := h.now()
	if p.IsControl() {
		h.eng.Control(now, p, &h.out)
	} else {
		h.Meter.Add(now, int(p.PayloadLen))
		src := h.PerSource[p.Src]
		if src == nil {
			if h.PerSource == nil {
				h.PerSource = make(map[flow.Addr]*Meter)
			}
			src = NewMeter(time.Second)
			h.PerSource[p.Src] = src
		}
		src.Add(now, int(p.PayloadLen))
		h.eng.Data(now, p, &h.out)
	}
	p.Release()
	for _, r := range h.out.Records {
		r.Node = n.Name()
		h.tracer(r)
	}
	for _, s := range h.out.Sends {
		n.Originate(s)
	}
	h.out.Reset()
}

// SendData originates a data packet, honouring live stop orders when
// the host is compliant. Traffic generators must send through this.
// It reports whether the packet entered the network.
func (h *Host) SendData(p *packet.Packet) bool {
	if !h.eng.MaySend(h.now(), p.Tuple()) {
		p.Release() // suppressed before entering the network; recycle
		return false
	}
	return h.node.Originate(p)
}

// ActiveStopOrders counts live stop orders — the filters the *client*
// must hold per §IV-D (na = R2·T).
func (h *Host) ActiveStopOrders() int { return h.eng.ActiveStopOrders(h.now()) }

// Meter accumulates a host's received byte count on the virtual clock
// and exposes average bandwidth over the interval it was observed. It
// also keeps per-window buckets so tests can examine the time profile
// of a flow (e.g. on-off bursts).
type Meter struct {
	end sim.Time

	Bytes   uint64
	Packets uint64

	window  sim.Time
	buckets map[int64]uint64 // nil until the first Add
}

// NewMeter creates a meter that additionally tracks per-window byte
// buckets of the given width; width 0 disables bucketing.
func NewMeter(window sim.Time) *Meter { return &Meter{window: window} }

// Add records n payload bytes observed at time now.
func (m *Meter) Add(now sim.Time, n int) {
	if now > m.end {
		m.end = now
	}
	m.Bytes += uint64(n)
	m.Packets++
	if m.window > 0 {
		if m.buckets == nil {
			m.buckets = make(map[int64]uint64)
		}
		m.buckets[int64(now/m.window)] += uint64(n)
	}
}

// Last returns the time of the last observation.
func (m *Meter) Last() sim.Time { return m.end }

// Idle reports whether the meter never saw traffic.
func (m *Meter) Idle() bool { return m.Packets == 0 }

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
