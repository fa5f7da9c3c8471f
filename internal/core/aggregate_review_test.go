// White-box tests for the aggregate review's split-back path. They
// drive aggregateReview directly against hand-built table states, so
// the capacity-boundary ordering property is pinned without depending
// on protocol timing.
package core

import (
	"strings"
	"testing"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// reviewHarness is a gateway on a one-link network with a tiny filter
// table, plus a captured trace.
type reviewHarness struct {
	eng    *sim.Engine
	g      *Gateway
	events []Event
}

func newReviewHarness(t *testing.T, capacity int) *reviewHarness {
	t.Helper()
	topo, ids := topology.Figure1(topology.DefaultParams())
	eng := sim.NewEngine(1)
	net := netsim.MustBuild(eng, topo)
	h := &reviewHarness{eng: eng}
	cfg := DefaultGatewayConfig()
	cfg.FilterCapacity = capacity
	cfg.Allocation = &alloc.Policy{PrefixLens: []uint8{24}}
	h.g = NewGateway(cfg)
	h.g.Attach(net.Node(ids.GGw1), func(e Event) { h.events = append(h.events, e) })
	return h
}

func (h *reviewHarness) rejections() []Event {
	var out []Event
	for _, e := range h.events {
		if e.Kind == EvFilterRejected && strings.HasPrefix(e.Detail, "split-back:") {
			out = append(out, e)
		}
	}
	return out
}

// TestSplitBackAtCapacityBoundary pins the remove-before-reinstall
// order on the exact boundary a headroom-less table (capacity < 4, so
// capacity/4 == 0) allows: an aggregate with two live children splits
// back while an unrelated filter holds a third slot. Installing the
// children before removing the aggregate transiently needs four slots
// of a three-slot table and silently rejects the second child before
// its deadline; removing the aggregate first fits exactly.
func TestSplitBackAtCapacityBoundary(t *testing.T) {
	h := newReviewHarness(t, 3)
	g := h.g
	victim := flow.MakeAddr(10, 0, 0, 2)
	a1 := flow.PairLabel(flow.MakeAddr(20, 101, 0, 1), victim)
	a2 := flow.PairLabel(flow.MakeAddr(20, 101, 0, 2), victim)
	outside := flow.PairLabel(flow.MakeAddr(30, 101, 0, 1), victim)
	exp := sim.Time(10 * time.Second)

	group := filter.SiblingGroup{
		Aggregate: flow.SrcPrefixLabel(flow.MakeAddr(20, 101, 0, 1).Mask(24), 24, victim),
		Children: []filter.Entry{
			{Label: a1, ExpiresAt: exp},
			{Label: a2, ExpiresAt: exp},
		},
		MaxExpiry: exp,
	}
	if err := g.dp.Install(a1, 0, exp); err != nil {
		t.Fatal(err)
	}
	if err := g.dp.Install(a2, 0, exp); err != nil {
		t.Fatal(err)
	}
	if replaced, err := g.dp.Aggregate(group.Aggregate, group.ChildLabels(), 0, exp); err != nil || replaced != 2 {
		t.Fatalf("aggregate setup: replaced %d, err %v", replaced, err)
	}
	g.aggregates[group.Aggregate.Key()] = &aggregate{
		label:    group.Aggregate.Key(),
		children: group.Children,
		exp:      exp,
	}
	if err := g.dp.Install(outside, 0, exp); err != nil {
		t.Fatal(err)
	}
	if n := g.dp.Len(); n != 2 {
		t.Fatalf("setup occupancy %d, want 2 (aggregate + outside)", n)
	}

	// Relief: the table has exactly enough room for full precision —
	// but only if the aggregate's slot is reclaimed first.
	h.eng.Schedule(sim.Time(time.Second), func() { g.aggregateReview() })
	h.eng.RunUntil(sim.Time(2 * time.Second))

	if rej := h.rejections(); len(rej) != 0 {
		t.Fatalf("split-back rejected a child at the capacity boundary: %v", rej)
	}
	if n := g.Stats().AggregateSplits; n != 1 {
		t.Fatalf("AggregateSplits = %d, want 1", n)
	}
	if len(g.aggregates) != 0 {
		t.Fatalf("aggregate record survived the split: %v", g.aggregates)
	}
	// Full precision restored: both children and the unrelated filter.
	now := sim.Time(time.Second)
	for _, l := range []flow.Label{a1, a2, outside} {
		if _, ok := g.dp.Table().Lookup(l, now); !ok {
			t.Fatalf("label %v missing after split-back", l)
		}
	}
	if _, ok := g.dp.Table().Lookup(group.Aggregate, now); ok {
		t.Fatalf("aggregate %v still installed after split-back", group.Aggregate)
	}
	if n := g.dp.Len(); n != 3 {
		t.Fatalf("occupancy %d after split-back, want 3", n)
	}
}

// TestSplitBackHonorsOriginalDeadlines: a child whose original filter
// window already ended is not resurrected by the split, and reinstalled
// children keep their original deadlines instead of a fresh window.
func TestSplitBackHonorsOriginalDeadlines(t *testing.T) {
	h := newReviewHarness(t, 3)
	g := h.g
	victim := flow.MakeAddr(10, 0, 0, 2)
	early := flow.PairLabel(flow.MakeAddr(20, 101, 0, 1), victim)
	late := flow.PairLabel(flow.MakeAddr(20, 101, 0, 2), victim)
	earlyExp := sim.Time(2 * time.Second)
	lateExp := sim.Time(10 * time.Second)

	agg := flow.SrcPrefixLabel(flow.MakeAddr(20, 101, 0, 1).Mask(24), 24, victim)
	if err := g.dp.Install(early, 0, earlyExp); err != nil {
		t.Fatal(err)
	}
	if err := g.dp.Install(late, 0, lateExp); err != nil {
		t.Fatal(err)
	}
	children := []filter.Entry{
		{Label: early, ExpiresAt: earlyExp},
		{Label: late, ExpiresAt: lateExp},
	}
	if replaced, err := g.dp.Aggregate(agg, []flow.Label{early, late}, 0, lateExp); err != nil || replaced != 2 {
		t.Fatalf("aggregate setup: replaced %d, err %v", replaced, err)
	}
	g.aggregates[agg.Key()] = &aggregate{label: agg.Key(), children: children, exp: lateExp}

	// Review after the early child's deadline: only the late child may
	// come back.
	h.eng.Schedule(sim.Time(3*time.Second), func() { g.aggregateReview() })
	h.eng.RunUntil(sim.Time(4 * time.Second))

	now := sim.Time(3 * time.Second)
	if _, ok := g.dp.Table().Lookup(early, now); ok {
		t.Fatalf("expired child %v resurrected past its original deadline", early)
	}
	if _, ok := g.dp.Table().Lookup(late, now); !ok {
		t.Fatalf("live child %v lost in split-back", late)
	}
	if rej := h.rejections(); len(rej) != 0 {
		t.Fatalf("unexpected split-back rejections: %v", rej)
	}
	// The reinstalled child keeps its original deadline: gone right
	// after lateExp.
	if _, ok := g.dp.Table().Lookup(late, lateExp+1); ok {
		t.Fatalf("child %v outlived its original deadline", late)
	}
}
