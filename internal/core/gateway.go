package core

import (
	"time"

	"aitf/internal/border"
	"aitf/internal/cluster"
	"aitf/internal/ctrl"
	"aitf/internal/dataplane"
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
	GatewayClient    = border.Client
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
// and forwards with a route record. The engine builds its tables and
// control state on the first control message (border.Engine); until
// then the gateway forwards without classifying, and its reads report
// empty tables and zero counters.
type Gateway struct {
	eng    *border.Engine
	tracer Tracer
	node   *netsim.Node
}

// NewGateway builds a gateway on node n and installs it as the node's
// packet handler. The engine runs on the simulator's clock and seeded
// source, so fault schedules replay exactly.
func NewGateway(n *netsim.Node, cfg GatewayConfig, tr Tracer) *Gateway {
	g := &Gateway{tracer: tr, node: n}
	var trace ctrl.Trace // nil without a tracer: no event detail is formatted
	if tr != nil {
		trace = g.trace
	}
	g.eng = border.New(cfg, border.Env{
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
		Trace: trace,
	})
	n.SetHandler(g)
	return g
}

// simClock is the engine's clock: the simulator's virtual time and
// event queue.
type simClock struct{ eng *sim.Engine }

func (c simClock) Now() time.Duration { return c.eng.Now() }

func (c simClock) Arm(d time.Duration, fn func()) sim.Timer { return c.eng.Schedule(d, fn) }

func (c simClock) Stop(t sim.Timer) { c.eng.Cancel(t) }

// Node returns the bound netsim node.
func (g *Gateway) Node() *netsim.Node { return g.node }

// Config returns the gateway's configuration as NewGateway was given it.
func (g *Gateway) Config() GatewayConfig { return g.eng.Config() }

// Filters and Shadows are read views of the gateway's filter bank and
// shadow cache (for experiments) that build nothing: before the tables
// exist they read as empty.
func (g *Gateway) Filters() dataplane.TableView  { return g.eng.Filters() }
func (g *Gateway) Shadows() dataplane.ShadowView { return g.eng.Shadows() }

// Cluster and KillReplica are the engine's detection plane
// (border.Engine): nil and a no-op on a gateway that has not built it
// yet.
func (g *Gateway) Cluster() *cluster.Cluster { return g.eng.Cluster() }
func (g *Gateway) KillReplica(id int) (inherited, lost int, ok bool) {
	return g.eng.KillReplica(id)
}

// Stats, OutstandingReliable, PendingHandshakes, Snapshot, Halt and
// Restore are the engine's (border.Engine). Any goroutine may call
// Stats while the gateway classifies. Halt freezes the control plane
// only: crash the node (netsim.Node.Crash) to kill the data plane.
// Restore wants a freshly built gateway.
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
			p.Release() // the engine keeps field values and the Msg only
			return
		}
		n.Forward(p)
		return
	}
	g.handleData(p, peer)
}

// handleData is the per-packet data path: ingress filtering,
// classification, then the engine's liveness, reappearance and
// detection calls, and forwarding with route record.
func (g *Gateway) handleData(p *packet.Packet, peer flow.Addr) {
	if g.eng.Spoofed(p.Src, peer) {
		p.Release()
		return
	}
	v := g.eng.Classify(p.Tuple(), int(p.PayloadLen))
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
