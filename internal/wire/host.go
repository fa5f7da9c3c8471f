package wire

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"aitf/internal/contract"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// HostConfig configures a wire-mode AITF end-host.
type HostConfig struct {
	Node NodeConfig
	// Gateway is the host's AITF gateway.
	Gateway flow.Addr
	// Timers must match the gateways'.
	Timers contract.Timers
	// DetectBps flags any source delivering more than this many payload
	// bytes/second (measured over DetectWindow); 0 disables detection.
	DetectBps float64
	// DetectWindow is the detection measurement window.
	DetectWindow time.Duration
	// Compliant hosts honour stop orders.
	Compliant bool
	// Trace receives structured protocol events (see
	// GatewayConfig.Trace); nil records nothing and logs through
	// slog.Default().
	Trace *obs.Trace
}

// Host is the wire-mode end-host: victim (detect, request, answer
// handshakes) and attacker (send, obey or ignore stop orders) roles.
type Host struct {
	mu   sync.Mutex
	cfg  HostConfig
	node *Node

	rateWindowStart time.Time
	rateBytes       map[flow.Addr]float64
	flagged         map[flow.Addr]bool

	wanted     map[flow.Label]time.Time // label -> expiry
	stopOrders filter.StopOrders        // deadlines on the wallNow clock

	// BytesReceived counts payload bytes of delivered data packets.
	BytesReceived uint64
	// RequestsSent counts filtering requests issued.
	RequestsSent uint64
	// StopOrdersReceived counts provider stop orders.
	StopOrdersReceived uint64
	// SuppressedSends counts packets withheld for compliance.
	SuppressedSends uint64
}

// NewHost binds the host's socket.
func NewHost(cfg HostConfig) (*Host, error) {
	if cfg.DetectWindow <= 0 {
		cfg.DetectWindow = 200 * time.Millisecond
	}
	n, err := NewNode(cfg.Node)
	if err != nil {
		return nil, err
	}
	h := &Host{
		cfg:             cfg,
		node:            n,
		rateWindowStart: time.Now(),
		rateBytes:       make(map[flow.Addr]float64),
		flagged:         make(map[flow.Addr]bool),
		wanted:          make(map[flow.Label]time.Time),
	}
	n.SetHandler(h)
	return h, nil
}

// Node exposes the transport.
func (h *Host) Node() *Node { return h.node }

// Run starts the host.
func (h *Host) Run() { h.node.Run() }

// Close stops the host.
func (h *Host) Close() error { return h.node.Close() }

// logf emits a Debug-level diagnostic through the trace logger.
func (h *Host) logf(format string, args ...any) {
	if l := h.cfg.Trace.Logger(); l.Enabled(context.Background(), slog.LevelDebug) {
		l.Debug(fmt.Sprintf(format, args...), "node", h.node.Name())
	}
}

// tracing reports whether protocol milestones are recorded at all; see
// Gateway.tracing.
func (h *Host) tracing() bool { return h.cfg.Trace != nil }

// event records a protocol milestone into the trace ring and the
// structured log. It is a no-op without a trace.
func (h *Host) event(kind string, label flow.Label, detail string) {
	if !h.tracing() {
		return
	}
	h.cfg.Trace.Info(obs.Event{
		At:     time.Duration(wallNow()),
		Node:   h.node.Name(),
		Kind:   kind,
		Flow:   label.String(),
		Detail: detail,
	})
}

// Handle implements Handler. Hosts never forward, so every path is
// terminal and the pooled shell decoded by the read loop is released
// on return (request() copies the evidence path synchronously; only
// the Msg object, which Release does not recycle, may be retained).
func (h *Host) Handle(n *Node, p *packet.Packet, _ flow.Addr) {
	defer p.Release()
	if p.Dst != n.Addr() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if p.IsControl() {
		h.handleControl(p)
		return
	}
	h.BytesReceived += uint64(p.PayloadLen)
	h.observe(p)
}

func (h *Host) observe(p *packet.Packet) {
	if h.cfg.DetectBps <= 0 {
		return
	}
	now := time.Now()
	if now.Sub(h.rateWindowStart) >= h.cfg.DetectWindow {
		h.rateWindowStart = now
		h.rateBytes = make(map[flow.Addr]float64)
	}
	h.rateBytes[p.Src] += float64(p.PayloadLen)

	label := flow.PairLabel(p.Src, p.Dst).Canonical()
	if exp, ok := h.wanted[label.Key()]; ok && time.Now().Before(exp) {
		return // already requested; gateway's shadow handles recurrences
	}
	if h.flagged[p.Src] {
		h.request(label, p.Path) // re-request after expiry
		return
	}
	if h.rateBytes[p.Src] > h.cfg.DetectBps*h.cfg.DetectWindow.Seconds() {
		h.flagged[p.Src] = true
		if h.tracing() {
			h.event("attack-detected", label, "undesired flow from "+p.Src.String())
		}
		h.request(label, p.Path)
	}
}

func (h *Host) request(label flow.Label, evidence []packet.RREntry) {
	h.wanted[label.Key()] = time.Now().Add(h.cfg.Timers.T)
	h.RequestsSent++
	if h.tracing() {
		h.event("request-sent", label, "to gateway "+h.cfg.Gateway.String())
	}
	req := packet.NewControl(h.node.Addr(), h.cfg.Gateway, &packet.FilterReq{
		Stage:    packet.StageToVictimGW,
		Flow:     label,
		Duration: h.cfg.Timers.T,
		Round:    1,
		Victim:   h.node.Addr(),
		Evidence: append([]packet.RREntry(nil), evidence...),
	})
	if err := h.node.Originate(req); err != nil {
		h.logf("request: %v", err)
	}
	req.Release() // Originate marshals synchronously; recycle the shell
}

func (h *Host) handleControl(p *packet.Packet) {
	switch m := p.Msg.(type) {
	case *packet.VerifyQuery:
		key := m.Flow.Canonical().Key()
		if exp, ok := h.wanted[key]; ok && time.Now().Before(exp) {
			if h.tracing() {
				h.event("handshake-reply", m.Flow.Canonical(), "to attacker gw "+p.Src.String())
			}
			reply := packet.NewControl(h.node.Addr(), p.Src,
				&packet.VerifyReply{Flow: m.Flow, Nonce: m.Nonce})
			if err := h.node.Originate(reply); err != nil {
				h.logf("reply: %v", err)
			}
			reply.Release()
		}
	case *packet.FilterReq:
		if m.Stage != packet.StageToAttacker || p.Src != h.cfg.Gateway {
			return
		}
		h.StopOrdersReceived++
		if h.cfg.Compliant {
			h.stopOrders.Add(m.Flow, wallNow()+m.Duration)
			h.event("stop-order", m.Flow.Canonical(), "complying")
		} else {
			h.event("stop-order", m.Flow.Canonical(), "ignoring")
		}
	}
}

// SendData originates a data packet, honouring stop orders when
// compliant. It reports whether the packet entered the network.
func (h *Host) SendData(dst flow.Addr, proto flow.Proto, sport, dport uint16, payload int) bool {
	h.mu.Lock()
	if h.cfg.Compliant {
		tup := flow.TupleOf(h.node.Addr(), dst, proto, sport, dport)
		if h.stopOrders.Blocks(tup, wallNow()) {
			h.SuppressedSends++
			h.mu.Unlock()
			return false
		}
	}
	h.mu.Unlock()
	p := packet.NewData(h.node.Addr(), dst, proto, sport, dport, payload)
	err := h.node.Originate(p)
	p.Release() // Originate marshals synchronously; the shell is ours to recycle
	return err == nil
}

var _ Handler = (*Host)(nil)
var _ = sim.Time(0)
