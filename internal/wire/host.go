package wire

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"aitf/internal/contract"
	"aitf/internal/detect"
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
	// bytes/second within one DetectWindow, through the same sketch
	// engine (internal/detect) the gateways run; 0 disables detection.
	DetectBps float64
	// DetectWindow is the detection measurement window (default 200ms).
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
	det  *detect.Engine // nil when DetectBps is 0

	// wanted maps each requested label to its request's expiry. A live
	// entry answers the §II-E handshake; an expired one re-requests.
	wanted     map[flow.Label]sim.Time
	stopOrders filter.StopOrders // deadlines on the wallNow clock
	dedup      filter.Dedup      // absorbs retransmitted stop orders

	stats HostStats // under mu
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
	h := &Host{cfg: cfg, node: n, wanted: make(map[flow.Label]sim.Time)}
	if cfg.DetectBps > 0 {
		h.det = detect.New(detect.Config{ThresholdBps: cfg.DetectBps, Window: cfg.DetectWindow})
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
func (h *Host) event(kind obs.EventKind, label flow.Label, detail string) {
	if h.tracing() {
		h.cfg.Trace.Info(obs.Record{At: wallNow(), Node: h.node.Name(), Kind: kind, Flow: label, Detail: detail})
	}
}

// Handle implements Handler: one packet, and whatever it makes the host
// send leaves at once.
func (h *Host) Handle(_ *Node, p *packet.Packet, _ flow.Addr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.handle(p, nil)
}

// handleBatch implements batchHandler: everything one read-loop wakeup
// took from the socket, in arrival order under one hold of mu, with the
// requests and verification replies it sends queued on tx and flushed
// once mu is released.
//
// aitf:noalloc
func (h *Host) handleBatch(n *Node, pkts []*packet.Packet, tx *sockBatch) {
	h.mu.Lock()
	for _, p := range pkts {
		h.handle(p, tx)
	}
	h.mu.Unlock()
	if err := n.flush(tx); err != nil {
		h.logf("send: %v", err)
	}
}

// handle treats one packet under mu, queueing what it sends on tx when
// tx is non-nil. Hosts never forward, so every path is terminal and the
// pooled shell decoded by the read loop is released on return
// (request() copies the evidence path synchronously; only the Msg
// object, which Release does not recycle, may be retained).
func (h *Host) handle(p *packet.Packet, tx *sockBatch) {
	defer p.Release()
	if p.Dst != h.node.Addr() {
		return
	}
	if p.IsControl() {
		h.handleControl(p, tx)
		return
	}
	h.stats.BytesReceived += uint64(p.PayloadLen)
	h.observe(p, tx)
}

func (h *Host) observe(p *packet.Packet, tx *sockBatch) {
	if h.det == nil {
		return
	}
	now := wallNow()
	_, detected := h.det.ObserveTuple(now, p.Tuple(), int(p.PayloadLen))
	label := flow.PairLabel(p.Src, p.Dst).Canonical()
	exp, asked := h.wanted[label.Key()]
	switch {
	case asked && now < exp:
		// Already requested; the gateway's shadow handles recurrences.
	case asked:
		h.request(label, p.Path, now, tx) // re-request after expiry
	case detected:
		if h.tracing() {
			h.event(obs.EvAttackDetected, label, "undesired flow from "+p.Src.String())
		}
		h.request(label, p.Path, now, tx)
	}
}

func (h *Host) request(label flow.Label, evidence []packet.RREntry, now sim.Time, tx *sockBatch) {
	h.wanted[label.Key()] = now + h.cfg.Timers.T
	h.stats.RequestsSent++
	if h.tracing() {
		h.event(obs.EvRequestSent, label, "to gateway "+h.cfg.Gateway.String())
	}
	req := packet.NewControl(h.node.Addr(), h.cfg.Gateway, &packet.FilterReq{
		Stage:    packet.StageToVictimGW,
		Flow:     label,
		Duration: h.cfg.Timers.T,
		Round:    1,
		Victim:   h.node.Addr(),
		Evidence: append([]packet.RREntry(nil), evidence...),
	})
	if err := h.node.originate(req, tx); err != nil {
		h.logf("request: %v", err)
	}
	req.Release() // originate marshals synchronously; recycle the shell
}

func (h *Host) handleControl(p *packet.Packet, tx *sockBatch) {
	switch m := p.Msg.(type) {
	case *packet.VerifyQuery:
		key := m.Flow.Canonical().Key()
		if exp, ok := h.wanted[key]; ok && wallNow() < exp {
			if h.tracing() {
				h.event(obs.EvHandshakeReply, m.Flow.Canonical(), "to attacker gw "+p.Src.String())
			}
			reply := packet.NewControl(h.node.Addr(), p.Src,
				&packet.VerifyReply{Flow: m.Flow, Nonce: m.Nonce})
			if err := h.node.originate(reply, tx); err != nil {
				h.logf("reply: %v", err)
			}
			reply.Release()
		}
	case *packet.FilterReq:
		if m.Stage != packet.StageToAttacker || p.Src != h.cfg.Gateway {
			return
		}
		if h.dedup.Seen(p.Src, m.Txid, wallNow(), filter.DedupWindow) {
			h.stats.CtrlDupDrops++
			return
		}
		h.stats.StopOrdersReceived++
		if h.cfg.Compliant {
			h.stopOrders.Add(m.Flow, wallNow()+m.Duration)
			h.event(obs.EvStopOrder, m.Flow.Canonical(), "complying")
		} else {
			h.event(obs.EvStopOrder, m.Flow.Canonical(), "ignoring")
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
			h.stats.SuppressedSends++
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
