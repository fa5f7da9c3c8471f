package core

import (
	"time"

	"aitf/internal/border"
	"aitf/internal/cluster"
	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// The border router's configuration, counters, shadow modes and
// snapshot are the engine's (package border).
type (
	GatewayConfig    = border.Config
	GatewayDetection = border.Detection
	GatewayStats     = border.Stats
	ShadowMode       = border.ShadowMode
	GatewaySnapshot  = border.Snapshot
)

// Shadow-mode values (see border.ShadowMode).
const (
	VictimDriven = border.VictimDriven
	GatewayAuto  = border.GatewayAuto
	ShadowOff    = border.ShadowOff
)

// DefaultGatewayConfig returns a cooperative gateway provisioned per
// the paper's worked examples.
func DefaultGatewayConfig() GatewayConfig { return border.DefaultConfig() }

// Gateway is an AITF border router on a netsim node: the border
// engine's control plane, fed from the node, plus the data half — it
// refuses disconnected neighbors, filters spoofed ingress, classifies,
// and forwards with a route record.
type Gateway struct {
	cfg    GatewayConfig
	eng    *border.Engine
	dp     *dataplane.Engine // the engine's, classified on every packet
	tracer Tracer
	node   *netsim.Node
}

// NewGateway builds a gateway handler; Attach binds it to a netsim
// node and must come before any other call.
func NewGateway(cfg GatewayConfig) *Gateway { return &Gateway{cfg: cfg} }

// Attach binds the gateway to a node and installs it as the node's
// packet handler. The engine runs on the simulator's clock and seeded
// source, so fault schedules replay exactly.
func (g *Gateway) Attach(n *netsim.Node, tr Tracer) {
	g.node = n
	g.tracer = tr
	g.eng = border.New(g.cfg, border.Env{
		Addr:  n.Addr(),
		Clock: simClock{n.Engine()},
		Rand:  n.Engine().Rand(),
		Send:  func(p *packet.Packet) { n.Originate(p) },
		NextHop: func(dst flow.Addr) (flow.Addr, bool) {
			if hop := n.NextHop(dst); hop != nil {
				return hop.Neighbor().Addr(), true
			}
			return 0, false
		},
		Trace: g.trace,
	})
	g.dp = g.eng.DataPlane()
	n.SetHandler(g)
}

// simClock is the engine's clock: the simulator's virtual time and
// event queue.
type simClock struct{ eng *sim.Engine }

func (c simClock) Now() time.Duration { return c.eng.Now() }

func (c simClock) After(d time.Duration, fn func()) func() {
	return c.eng.Schedule(d, fn).Cancel
}

// Node returns the bound netsim node.
func (g *Gateway) Node() *netsim.Node { return g.node }

// Config returns the gateway's configuration.
func (g *Gateway) Config() GatewayConfig { return g.cfg }

// DataPlane exposes the sharded classification engine; Filters and
// Shadows expose its filter bank and shadow cache (for experiments).
func (g *Gateway) DataPlane() *dataplane.Engine  { return g.dp }
func (g *Gateway) Filters() dataplane.TableView  { return g.dp.Table() }
func (g *Gateway) Shadows() dataplane.ShadowView { return g.dp.Shadow() }

// Detector and Cluster expose the detection plane's engine (nil when
// the gateway defends no legacy clients or runs clustered) and its
// cluster overlay (nil when disabled); KillReplica kills one logical
// replica mid-run.
func (g *Gateway) Detector() *detect.Engine  { return g.eng.Plane().Engine() }
func (g *Gateway) Cluster() *cluster.Cluster { return g.eng.Plane().Cluster() }
func (g *Gateway) KillReplica(id int) (inherited, lost int, ok bool) {
	return g.eng.Plane().KillReplica(id, g.now())
}

// Stats, OutstandingReliable, PendingHandshakes, Snapshot, Halt and
// Restore are the engine's (border.Engine). Any goroutine may call
// Stats while the gateway classifies. Halt freezes the control plane
// only: crash the node (netsim.Node.Crash) to kill the data plane.
// Restore wants a freshly attached gateway.
func (g *Gateway) Stats() GatewayStats           { return g.eng.Stats() }
func (g *Gateway) OutstandingReliable() int      { return g.eng.OutstandingReliable() }
func (g *Gateway) PendingHandshakes() int        { return g.eng.PendingHandshakes() }
func (g *Gateway) Snapshot() *GatewaySnapshot    { return g.eng.Snapshot() }
func (g *Gateway) Halt()                         { g.eng.Halt() }
func (g *Gateway) Restore(snap *GatewaySnapshot) { g.eng.Restore(snap) }

// Disconnected reports whether traffic from neighbor is currently
// being refused.
func (g *Gateway) Disconnected(neighbor flow.Addr) bool { return g.eng.Disconnected(neighbor, g.now()) }

func (g *Gateway) now() sim.Time { return g.node.Engine().Now() }

func (g *Gateway) trace(k obs.EventKind, f flow.Label, detail string) {
	if g.tracer != nil {
		g.tracer(obs.Record{At: g.now(), Node: g.node.Name(), Kind: k, Flow: f, Detail: detail})
	}
}

// Receive implements netsim.Handler.
func (g *Gateway) Receive(n *netsim.Node, p *packet.Packet, from *netsim.Iface) {
	var peer flow.Addr // 0 for a packet the node originated
	if from != nil {
		peer = from.Neighbor().Addr()
		if g.eng.Refuses(peer, g.now()) {
			p.Release()
			return
		}
	}
	if p.IsControl() {
		if p.Dst == n.Addr() {
			g.eng.Control(p, peer)
			return
		}
		n.Forward(p)
		return
	}
	g.handleData(p, peer)
}

// dropSpoofed applies ingress filtering (§III-A): spoofed sources from
// clients whose legitimate addresses are known are dropped.
func (g *Gateway) dropSpoofed(p *packet.Packet, peer flow.Addr) bool {
	if peer == 0 {
		return false
	}
	valid, ok := g.cfg.IngressValidSrc[peer]
	if !ok || len(valid) == 0 {
		return false
	}
	for _, a := range valid {
		if p.Src == a {
			return false
		}
	}
	g.eng.CountSpoofDrop()
	return true
}

// handleData is the per-packet data path: ingress filtering,
// classification, then the engine's liveness, reappearance and
// detection calls, and forwarding with route record.
func (g *Gateway) handleData(p *packet.Packet, peer flow.Addr) {
	if g.dropSpoofed(p, peer) {
		p.Release()
		return
	}
	v := g.dp.ClassifyTuple(p.Tuple(), int(p.PayloadLen))
	now := g.now()
	g.eng.Seen(flow.PairLabel(p.Src, p.Dst), peer, now)
	if v.Drop {
		g.eng.CountFilterDrop()
		p.Release() // the filter bank ate it; recycle the shell
		return
	}
	if v.ShadowHit && g.eng.Reappeared(v.Shadow) {
		p.Release() // the triggering packet is dropped too
		return
	}
	g.eng.Observe(now, p)
	if p.Dst == g.node.Addr() {
		p.Release() // traffic addressed to the router itself is absorbed
		return
	}
	// AITF border routers record the route on transit data packets.
	if len(p.Path) < packet.MaxPathLen {
		p.RecordRoute(g.node.Addr(), g.eng.RouteNonce(p.Src, p.Dst))
	}
	if g.node.Forward(p) {
		g.eng.CountForwarded()
	}
}
