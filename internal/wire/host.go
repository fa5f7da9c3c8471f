package wire

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"aitf/internal/contract"
	"aitf/internal/detect"
	"aitf/internal/endhost"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
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

// Host is the wire-mode end-host: the shared end-host engine
// (endhost.Engine) behind a socket, on the wallNow clock. It polices
// none of its own requests; its gateway holds it to its contract.
type Host struct {
	mu   sync.Mutex
	cfg  HostConfig
	node *Node
	eng  endhost.Engine // under mu
	out  endhost.Out    // under mu
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
	ec := endhost.Config{Gateway: cfg.Gateway, Timers: cfg.Timers, Compliant: cfg.Compliant}
	if cfg.DetectBps > 0 {
		ec.Detector = detect.NewHostDetector(detect.Config{ThresholdBps: cfg.DetectBps, Window: cfg.DetectWindow})
	}
	h := &Host{cfg: cfg, node: n, out: endhost.Out{Trace: cfg.Trace != nil}}
	h.eng = endhost.New(ec)
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
// pooled shell decoded by the read loop is released on return (the
// engine copies the evidence path synchronously; only the Msg object,
// which Release does not recycle, may be retained).
func (h *Host) handle(p *packet.Packet, tx *sockBatch) {
	defer p.Release()
	if p.Dst != h.node.Addr() {
		return
	}
	if p.IsControl() {
		h.eng.Control(wallNow(), p, &h.out)
	} else {
		h.eng.Data(wallNow(), p, &h.out)
	}
	for _, r := range h.out.Records {
		r.Node = h.node.Name()
		h.cfg.Trace.Info(r)
	}
	for _, s := range h.out.Sends {
		if err := h.node.originate(s, tx); err != nil {
			h.logf("send: %v", err)
		}
		s.Release() // originate marshals synchronously; recycle the shell
	}
	h.out.Reset()
}

// SendData originates a data packet, honouring stop orders when
// compliant. It reports whether the packet entered the network.
func (h *Host) SendData(dst flow.Addr, proto flow.Proto, sport, dport uint16, payload int) bool {
	h.mu.Lock()
	ok := h.eng.MaySend(wallNow(), flow.TupleOf(h.node.Addr(), dst, proto, sport, dport))
	h.mu.Unlock()
	if !ok {
		return false
	}
	p := packet.NewData(h.node.Addr(), dst, proto, sport, dport, payload)
	err := h.node.Originate(p)
	p.Release() // Originate marshals synchronously; the shell is ours to recycle
	return err == nil
}

var _ Handler = (*Host)(nil)
