package alloc

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"aitf/internal/cluster"
	"aitf/internal/ctrl"
	"aitf/internal/dataplane"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/sim"
)

// Aggregate is one covering prefix filter installed in place of its
// children under table pressure, with the child entries (labels and
// deadlines) needed to split it back out. It is also the snapshot form.
type Aggregate struct {
	Label    flow.Label
	Children []filter.Entry
	Exp      filter.Time // the aggregate filter's deadline
}

// AggregateStats are the aggregator's counters. Collateral sums, per
// aggregation, the covered source addresses minus the offenders;
// CollateralBytes sums each installed aggregate's estimated legit bytes
// per detection window (Assess pricing), so runs under different
// policies compare directly.
type AggregateStats struct {
	Aggregations       uint64 // sibling groups coalesced into a prefix filter
	AggregatedChildren uint64 // child filters folded across all aggregations
	Splits             uint64 // aggregates split back after pressure relief
	Covered            uint64 // installs satisfied by a live covering aggregate
	Collateral         uint64
	CollateralBytes    uint64
	Refinements        uint64 // aggregates replaced by deeper, cheaper prefixes
}

// Aggregator is the §IV coarse-filter lifecycle around Choose that both
// gateway runtimes run: an install a live aggregate covers refreshes it
// instead of spending a slot, a full table is relieved by the cheapest
// cover, and Review splits aggregates back when pressure subsides or
// refines them when it only eases. Filter mutations are appended to the
// cluster's replicated log. The caller serialises every method but
// Stats, which any goroutine may call, with the clock's callbacks.
type Aggregator struct {
	dp      *dataplane.Engine
	policy  *Policy // nil: reject-only
	traffic Traffic
	window  float64 // traffic's detection window, seconds
	plane   *cluster.Plane
	trace   func(obs.EventKind, flow.Label, string)

	aggregates map[flow.Label]*Aggregate // by covering label's Key()

	// clk runs Review every `every` while aggregates are outstanding,
	// until Halt clears it: review is the timer's callback, bound once,
	// and reviewArmed marks it pending.
	clk         ctrl.Clock
	every       time.Duration
	review      func()
	reviewTimer sim.Timer
	reviewArmed bool

	aggregations, children, splits, covered  atomic.Uint64 // aitf:atomic
	collateral, collateralBytes, refinements atomic.Uint64 // aitf:atomic
}

// NewAggregator builds the lifecycle over dp; a nil policy makes
// Install a plain, reject-only install. Candidates are priced against
// the detection plane when it has detection armed (a cluster's view
// includes traffic only a dead replica's frozen summary saw); the plane
// also receives the filter ops. trace receives the aggregation events.
// The aggregator reviews itself on clk every `every` (the gateway's
// Ttmp) while aggregates are outstanding.
func NewAggregator(dp *dataplane.Engine, policy *Policy, plane *cluster.Plane,
	trace func(obs.EventKind, flow.Label, string), clk ctrl.Clock, every time.Duration) *Aggregator {
	a := &Aggregator{dp: dp, policy: policy, plane: plane, trace: trace, aggregates: make(map[flow.Label]*Aggregate),
		clk: clk, every: every}
	a.review = a.reviewTick
	if plane.Window() > 0 {
		a.traffic, a.window = plane, plane.Window().Seconds()
	}
	return a
}

// Install installs a victim-side filter for label until exp. With a
// policy, a live aggregate covering label is refreshed instead, and on
// filter.ErrTableFull the cheapest cover freeing a slot is installed
// and the install retried once. Either way the review is armed while an
// aggregate is outstanding.
func (a *Aggregator) Install(label flow.Label, now, exp filter.Time) error {
	err := a.install(label, now, exp)
	a.ArmReview()
	return err
}

// ArmReview arms the review, unless one is pending or no aggregate is
// outstanding: Install arms it itself, a restore calls it.
func (a *Aggregator) ArmReview() {
	if a.clk == nil || a.reviewArmed || len(a.aggregates) == 0 {
		return
	}
	a.reviewArmed = true
	a.reviewTimer = a.clk.Arm(a.every, a.review)
}

func (a *Aggregator) reviewTick() {
	a.reviewArmed = false
	if a.Review(a.clk.Now()) {
		a.ArmReview()
	}
}

// Halt stops the review for good, as a crashed gateway's control plane
// stops.
func (a *Aggregator) Halt() {
	if a.clk != nil {
		a.clk.Stop(a.reviewTimer)
	}
	a.clk = nil
}

func (a *Aggregator) install(label flow.Label, now, exp filter.Time) error {
	if a.policy != nil {
		if agg := a.covering(label, now); agg != nil && a.dp.Install(agg.Label, now, exp) == nil {
			a.refreshCovered(agg, label, now, exp)
			return nil
		}
	}
	err := a.dp.Install(label, now, exp)
	if err != nil {
		if !errors.Is(err, filter.ErrTableFull) || a.policy == nil || !a.allocate(now) {
			return err
		}
		if err := a.dp.Install(label, now, exp); err != nil {
			return err
		}
	}
	a.plane.Record(cluster.OpInstall, label, exp, now)
	return nil
}

// covering returns the deepest live aggregate covering label, if any.
// Aggregates can nest (a split-back's exact filter folded into a deeper
// cover under a live wider one); preferring the deepest keeps the pick
// independent of map order, which the simulator's fingerprints need.
func (a *Aggregator) covering(label flow.Label, now filter.Time) *Aggregate {
	var best *Aggregate
	for _, agg := range a.aggregates {
		if agg.Exp > now && agg.Label.Covers(label) &&
			(best == nil || agg.Label.SrcPrefixLen > best.Label.SrcPrefixLen) {
			best = agg
		}
	}
	return best
}

// refreshCovered books an install that agg, already extended to exp,
// satisfies. The label is recorded as a child so a split-back
// reinstalls it rather than unblocking the flow early — at the later of
// exp and a live exact filter's deadline, since a refinement can fold
// that exact filter into a deeper cover and the split-back after it
// restores only the recorded deadline.
func (a *Aggregator) refreshCovered(agg *Aggregate, label flow.Label, now, exp filter.Time) {
	agg.Exp = max(agg.Exp, exp)
	childExp := exp
	if e, ok := a.dp.Get(label, now); ok && e.ExpiresAt > childExp {
		childExp = e.ExpiresAt
	}
	key := label.Key()
	i := 0
	for i < len(agg.Children) && agg.Children[i].Label != key {
		i++
	}
	if i == len(agg.Children) {
		agg.Children = append(agg.Children, filter.Entry{Label: key, InstalledAt: now, ExpiresAt: childExp})
	} else {
		agg.Children[i].ExpiresAt = max(agg.Children[i].ExpiresAt, childExp)
	}
	a.covered.Add(1)
	a.plane.Record(cluster.OpInstall, label, exp, now)
}

// config is the allocator configuration for one Choose call.
func (a *Aggregator) config(policy Policy) Config {
	return Config{Policy: policy, Traffic: a.traffic, WindowSeconds: a.window}
}

// allocate installs the cheapest aggregate set (in estimated collateral
// legit bytes) that frees a slot, reporting whether any slot was freed.
// Under a one-rung policy with no traffic view every candidate prices
// alike, so the pick is the largest sibling group at that length.
func (a *Aggregator) allocate(now filter.Time) bool {
	freed := false
	for _, pick := range Choose(a.dp.FilterEntries(), 1, a.config(*a.policy)).Picks {
		replaced, err := a.dp.Aggregate(pick.Aggregate, pick.ChildLabels(), now, pick.MaxExpiry)
		if err != nil || replaced < 2 {
			continue
		}
		freed = true
		a.merge(pick)
		a.aggregations.Add(1)
		a.children.Add(uint64(replaced))
		// Port-distinct exact children can outnumber the covered sources;
		// collateral exposure never goes below zero.
		if c := pick.CoveredAddrs() - replaced; c > 0 {
			a.collateral.Add(uint64(c))
		}
		a.collateralBytes.Add(uint64(pick.LegitBytes))
		a.trace(obs.EvAggregated, pick.Aggregate,
			fmt.Sprintf("%d children, covers %d sources, est %dB/window collateral",
				replaced, pick.CoveredAddrs(), uint64(pick.LegitBytes)))
		a.plane.Record(cluster.OpAggregate, pick.Aggregate, pick.MaxExpiry, now)
	}
	return freed
}

// merge records one installed pick. A pick that folded a nested
// aggregate absorbs its recorded children, so a later split-back still
// restores every original pair filter.
func (a *Aggregator) merge(pick Candidate) {
	key := pick.Aggregate.Key()
	agg, ok := a.aggregates[key]
	if !ok {
		agg = &Aggregate{Label: key}
		a.aggregates[key] = agg
	}
	for _, c := range pick.Children {
		ck := c.Label.Key()
		if inner, ok := a.aggregates[ck]; ok && ck != key {
			agg.Children = append(agg.Children, inner.Children...)
			agg.Exp = max(agg.Exp, inner.Exp)
			delete(a.aggregates, ck)
			continue
		}
		agg.Children = append(agg.Children, c)
	}
	agg.Exp = max(agg.Exp, pick.MaxExpiry)
}

// Review drops expired aggregates and splits one back into its live
// children when the table has room again, restoring filter precision
// (and zero collateral damage); otherwise it may refine one. It reports
// whether aggregates remain, i.e. whether to review again after Ttmp.
func (a *Aggregator) Review(now filter.Time) (again bool) {
	// Deterministic order: the simulator's fingerprints hash the trace.
	keys := make([]flow.Label, 0, len(a.aggregates))
	for k := range a.aggregates {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	capacity := a.dp.FilterCapacity()
	refined := false
	for _, k := range keys {
		agg, ok := a.aggregates[k]
		if !ok {
			continue // consumed by an earlier refinement this review
		}
		if agg.Exp <= now {
			delete(a.aggregates, k)
			a.trace(obs.EvDeaggregated, agg.Label, "expired with its last child")
			continue
		}
		live := agg.Children[:0]
		for _, c := range agg.Children {
			if c.ExpiresAt > now {
				live = append(live, c)
			}
		}
		agg.Children = live
		// The children need len(live)−1 net slots; a quarter of the
		// table stays headroom for fresh requests.
		need := len(live) - 1
		room := capacity - capacity/4 - a.dp.Len()
		if need >= 0 && need <= room {
			// Remove before reinstalling: install-first transiently needs
			// len(live)+1 slots and, in a table too small for a headroom
			// quarter, rejected a child before its deadline. A simulator
			// review is one event, so nothing slips through the gap; the
			// daemon's lock-free classifier can pass a packet inside it.
			a.dp.Remove(agg.Label)
			a.plane.Record(cluster.OpRemove, agg.Label, 0, now)
			a.reinstall(live, nil, now, "split-back: ")
			delete(a.aggregates, k)
			a.splits.Add(1)
			a.trace(obs.EvDeaggregated, agg.Label, fmt.Sprintf("split back %d children", len(live)))
			continue
		}
		// Full precision does not fit: re-plan at strictly deeper rungs
		// instead, at most one aggregate per review to bound its work.
		// A one-rung policy has no deeper rung and just waits.
		if a.policy != nil && !refined {
			refined = a.refine(k, agg, live, now, room)
		}
	}
	return len(a.aggregates) > 0
}

// refine replaces one live aggregate with a deeper, cheaper cover
// chosen over its recorded children, plus exact filters for the
// children that cover leaves out. It fires only when the re-plan fits
// the spare room and strictly shrinks the covered address space, so
// each refinement monotonically reduces collateral exposure.
func (a *Aggregator) refine(k flow.Label, agg *Aggregate, live []filter.Entry, now filter.Time, room int) bool {
	if len(live) < 2 || room < 1 {
		return false
	}
	var lens []uint8
	for _, l := range a.policy.Lens() {
		if l > agg.Label.SrcPrefixLen {
			lens = append(lens, l)
		}
	}
	if len(lens) == 0 {
		return false
	}
	// The replacement set may occupy this aggregate's slot plus the
	// spare room: len(live) − freed ≤ 1 + room.
	requiredFreed := max(len(live)-1-room, 1)
	plan := Choose(live, requiredFreed, a.config(Policy{PrefixLens: lens}))
	if plan.Freed < requiredFreed || len(plan.Picks) == 0 {
		return false
	}
	current := filter.SiblingGroup{Aggregate: agg.Label}
	uncovered := len(live) - (plan.Freed + len(plan.Picks))
	// Subtract rather than add: plan.CoveredAddrs may sit at the
	// math.MaxInt clamp, where adding would wrap on 32-bit platforms.
	if plan.CoveredAddrs >= current.CoveredAddrs()-uncovered {
		return false // no precision gained
	}
	a.dp.Remove(agg.Label)
	a.plane.Record(cluster.OpRemove, agg.Label, 0, now)
	delete(a.aggregates, k)
	covered := make(map[flow.Label]bool)
	for _, pick := range plan.Picks {
		if _, err := a.dp.Aggregate(pick.Aggregate, pick.ChildLabels(), now, pick.MaxExpiry); err != nil {
			a.trace(obs.EvFilterRejected, pick.Aggregate, "refine: "+err.Error())
			continue
		}
		a.merge(pick)
		a.plane.Record(cluster.OpAggregate, pick.Aggregate, pick.MaxExpiry, now)
		for _, c := range pick.Children {
			covered[c.Label.Key()] = true
		}
		a.collateralBytes.Add(uint64(pick.LegitBytes))
		a.trace(obs.EvAggregated, pick.Aggregate,
			fmt.Sprintf("refined: %d children, covers %d sources, est %dB/window collateral",
				len(pick.Children), pick.CoveredAddrs(), uint64(pick.LegitBytes)))
	}
	a.reinstall(live, covered, now, "refine split: ")
	a.refinements.Add(1)
	a.trace(obs.EvDeaggregated, agg.Label, fmt.Sprintf("refined into %d deeper aggregates", len(plan.Picks)))
	return true
}

// reinstall puts children not in skip back as exact filters at their
// original deadlines — never past them — tracing each rejection.
func (a *Aggregator) reinstall(children []filter.Entry, skip map[flow.Label]bool, now filter.Time, why string) {
	for _, c := range children {
		if skip[c.Label.Key()] {
			continue
		}
		if err := a.dp.Install(c.Label, now, c.ExpiresAt); err != nil {
			a.trace(obs.EvFilterRejected, c.Label, why+err.Error())
			continue
		}
		a.plane.Record(cluster.OpInstall, c.Label, c.ExpiresAt, now)
	}
}

// Stats returns the counters, each loaded atomically: per-field
// coherent, which is all monitoring needs.
func (a *Aggregator) Stats() AggregateStats {
	return AggregateStats{
		Aggregations: a.aggregations.Load(), AggregatedChildren: a.children.Load(),
		Splits: a.splits.Load(), Covered: a.covered.Load(),
		Collateral: a.collateral.Load(), CollateralBytes: a.collateralBytes.Load(),
		Refinements: a.refinements.Load(),
	}
}

// RestoreStats continues the counters from a snapshot.
func (a *Aggregator) RestoreStats(s AggregateStats) {
	a.aggregations.Store(s.Aggregations)
	a.children.Store(s.AggregatedChildren)
	a.splits.Store(s.Splits)
	a.covered.Store(s.Covered)
	a.collateral.Store(s.Collateral)
	a.collateralBytes.Store(s.CollateralBytes)
	a.refinements.Store(s.Refinements)
}

// clone copies agg with its own Children.
func (agg Aggregate) clone() *Aggregate {
	agg.Children = append([]filter.Entry(nil), agg.Children...)
	return &agg
}

// Export returns copies of the outstanding records sorted by label, or
// nil when there are none.
func (a *Aggregator) Export() []Aggregate {
	var out []Aggregate
	for _, agg := range a.aggregates {
		out = append(out, *agg.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label.String() < out[j].Label.String() })
	return out
}

// Adopt loads exported records, skipping those expired by now; the
// aggregate filters themselves come back with the filter table.
func (a *Aggregator) Adopt(aggs []Aggregate, now filter.Time) {
	for _, agg := range aggs {
		if agg.Exp > now {
			a.aggregates[agg.Label.Key()] = agg.clone()
		}
	}
}
