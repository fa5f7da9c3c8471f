// Package pushback implements the cooperative pushback baseline of
// Mahajan et al., "Controlling High Bandwidth Aggregates in the
// Network" [MBF+01], which the AITF paper compares against in §V.
//
// A congested pushback router identifies the aggregate responsible
// (here: all traffic toward one destination), rate-limits it locally,
// and — if the aggregate stays hot — asks the upstream neighbors that
// contribute it to rate-limit too, recursively, hop by hop. Contrast
// with AITF, where each round touches only four nodes and the filter
// lands at the attacker's edge.
package pushback

import (
	"time"

	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// Config tunes a pushback router.
type Config struct {
	// DropThreshold is the fraction of an aggregate's packets dropped
	// (by the congested output queue, or by an installed limiter) above
	// which the aggregate counts as hot. [MBF+01] triggers on a node
	// "dropping a significant amount" of an aggregate.
	DropThreshold float64
	// LimitBps is the rate the aggregate is limited to once hot.
	LimitBps float64
	// Window is the measurement window.
	Window time.Duration
	// PropagateAfter is how long an aggregate must stay hot before the
	// router recruits its upstream neighbors ([MBF+01]: "several
	// seconds").
	PropagateAfter time.Duration
	// Duration is the lifetime of an installed rate limit.
	Duration time.Duration
	// ContribShare is the minimum share of the aggregate an ingress
	// must carry to receive a pushback request.
	ContribShare float64
	// MaxDepth bounds recursion.
	MaxDepth int
}

// DefaultConfig mirrors the MBF+01 sketch with a 10 Mbit/s tail.
func DefaultConfig() Config {
	return Config{
		DropThreshold:  0.05,
		LimitBps:       1.25e6 / 2,
		Window:         500 * time.Millisecond,
		PropagateAfter: 2 * time.Second,
		Duration:       time.Minute,
		ContribShare:   0.1,
		MaxDepth:       32,
	}
}

// Stats counts a router's pushback activity.
type Stats struct {
	LimitsInstalled uint64
	LimitDrops      uint64
	RequestsSent    uint64
	RequestsRecv    uint64
	Forwarded       uint64
}

// aggState tracks one aggregate (destination) at one router.
type aggState struct {
	dst flow.Addr

	windowStart      sim.Time
	windowBytes      float64
	windowPkts       float64
	windowQueueFails float64
	windowLimitDrops float64
	hotSince         sim.Time
	hot              bool

	// perIngress tracks contribution per upstream neighbor this window.
	perIngress map[flow.Addr]float64

	// limiter is a byte token bucket: the limit rate with a one-window
	// burst.
	limited    bool
	limitUntil sim.Time
	limiter    *filter.Policer
	// depth is the recursion depth the limit was installed at (0 =
	// local detection); further propagation continues from here, so
	// MaxDepth bounds the total chain even though every recruited
	// router re-detects the aggregate through its own limiter drops.
	depth int

	propagated bool
}

// Router is a pushback-capable router. Every router on the path runs
// one (pushback is hop-by-hop, unlike AITF which needs only border
// routers).
type Router struct {
	cfg   Config
	node  *netsim.Node
	aggs  map[flow.Addr]*aggState
	stats Stats

	// OnInstall, if set, is called when a rate limit is installed
	// (used by the experiment harness to count involved routers).
	OnInstall func(node string, agg flow.Label, depth int)
}

// NewRouter builds a pushback router handler.
func NewRouter(cfg Config) *Router {
	if cfg.Window <= 0 {
		cfg.Window = 500 * time.Millisecond
	}
	return &Router{cfg: cfg, aggs: make(map[flow.Addr]*aggState)}
}

// Attach binds the router to a node.
func (r *Router) Attach(n *netsim.Node) {
	r.node = n
	n.SetHandler(r)
}

// Stats returns a copy of the counters.
func (r *Router) Stats() Stats { return r.stats }

func (r *Router) now() sim.Time { return r.node.Engine().Now() }

// Receive implements netsim.Handler.
func (r *Router) Receive(n *netsim.Node, p *packet.Packet, from *netsim.Iface) {
	if p.Dst == n.Addr() {
		if m, ok := p.Msg.(*packet.PushbackReq); ok {
			r.handleRequest(m)
		}
		p.Release() // consumed here; handleRequest keeps only m
		return
	}
	if p.IsControl() {
		n.Forward(p)
		return
	}
	r.handleData(p, from)
}

func (r *Router) handleData(p *packet.Packet, from *netsim.Iface) {
	now := r.now()
	a := r.agg(p.Dst)

	// Window bookkeeping.
	if now-a.windowStart >= sim.Time(r.cfg.Window) {
		r.evaluate(a)
		a.windowStart = now
		a.windowBytes = 0
		a.windowPkts = 0
		a.windowQueueFails = 0
		a.windowLimitDrops = 0
		a.perIngress = make(map[flow.Addr]float64)
	}
	a.windowBytes += float64(p.PayloadLen)
	a.windowPkts++
	if from != nil {
		a.perIngress[from.Neighbor().Addr()] += float64(p.PayloadLen)
	}

	// Enforce an active limit.
	if a.limited {
		if a.limitUntil <= now {
			a.limited = false
		} else if !a.limiter.AllowN(now, float64(p.PayloadLen)) {
			a.windowLimitDrops++
			r.stats.LimitDrops++
			p.Release() // rate-limited: the packet is dead, recycle it
			return
		}
	}
	if !r.node.Forward(p) {
		// Output queue overflow: the congestion signal of [MBF+01].
		a.windowQueueFails++
		return
	}
	r.stats.Forwarded++
}

func (r *Router) agg(dst flow.Addr) *aggState {
	a, ok := r.aggs[dst]
	if !ok {
		a = &aggState{dst: dst, perIngress: make(map[flow.Addr]float64), windowStart: r.now()}
		r.aggs[dst] = a
	}
	return a
}

// evaluate runs at window boundaries: declare aggregates hot when a
// significant fraction of their packets is being dropped (by the
// congested output queue or by our own limiter), install local limits,
// and recruit upstream contributors when the heat persists.
func (r *Router) evaluate(a *aggState) {
	now := r.now()
	if a.windowPkts == 0 {
		a.hot = false
		a.propagated = false
		return
	}
	dropFrac := (a.windowQueueFails + a.windowLimitDrops) / a.windowPkts
	if dropFrac <= r.cfg.DropThreshold {
		a.hot = false
		a.propagated = false
		return
	}
	if !a.hot {
		a.hot = true
		a.hotSince = now
	}
	if !a.limited {
		r.installLimit(a, r.cfg.LimitBps, 0)
	}
	if !a.propagated && now-a.hotSince >= sim.Time(r.cfg.PropagateAfter) {
		a.propagated = true
		r.propagate(a, a.depth+1)
	}
}

func (r *Router) installLimit(a *aggState, limitBps float64, depth int) {
	now := r.now()
	a.limited = true
	a.limitUntil = now + sim.Time(r.cfg.Duration)
	a.limiter = filter.NewPolicer(limitBps, limitBps*sim.Time(r.cfg.Window).Seconds())
	a.depth = depth
	r.stats.LimitsInstalled++
	if r.OnInstall != nil {
		r.OnInstall(r.node.Name(), flow.ToDestination(a.dst), depth)
	}
}

// propagate sends pushback requests to every ingress neighbor carrying
// at least ContribShare of the aggregate this window.
func (r *Router) propagate(a *aggState, depth int) {
	if depth > r.cfg.MaxDepth {
		return
	}
	total := 0.0
	for _, b := range a.perIngress {
		total += b
	}
	if total == 0 {
		return
	}
	for nb, b := range a.perIngress {
		if b/total < r.cfg.ContribShare {
			continue
		}
		r.stats.RequestsSent++
		r.node.Originate(packet.NewControl(r.node.Addr(), nb, &packet.PushbackReq{
			Aggregate: flow.ToDestination(a.dst),
			LimitBps:  uint64(r.cfg.LimitBps),
			Depth:     uint8(depth),
			Duration:  r.cfg.Duration,
		}))
	}
}

// handleRequest serves a downstream neighbor's pushback request:
// install the limit locally and schedule recursion if the aggregate
// stays hot here too.
func (r *Router) handleRequest(m *packet.PushbackReq) {
	r.stats.RequestsRecv++
	a := r.agg(m.Aggregate.Dst)
	if !a.limited {
		r.installLimit(a, float64(m.LimitBps), int(m.Depth))
	}
	depth := int(m.Depth)
	if depth >= r.cfg.MaxDepth {
		return
	}
	// Recurse after PropagateAfter if this router still sees the
	// aggregate above the limit. The propagated flag is shared with
	// evaluate()'s hot-aggregate path so a router recruited by request
	// does not also fire a duplicate round when its own limiter drops
	// mark the aggregate hot.
	r.node.Engine().Schedule(sim.Time(r.cfg.PropagateAfter), func() {
		now := r.now()
		elapsed := sim.Time(now - a.windowStart).Seconds()
		if elapsed <= 0 || a.propagated {
			return
		}
		if a.windowBytes/elapsed > float64(m.LimitBps) {
			a.propagated = true
			r.propagate(a, depth+1)
		}
	})
}
