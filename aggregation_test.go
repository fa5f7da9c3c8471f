package aitf

import (
	"strings"
	"testing"
	"time"

	"aitf/internal/flow"
)

// fixed24 is the one-rung /24 aggregation policy: with no traffic view
// to price candidates, a full table coalesces the largest /24 group.
var fixed24 = &AllocationPolicy{PrefixLens: []uint8{24}}

// runFilterPressure floods a victim whose gateway holds only four
// wire-speed filters with a dozen concurrent attacks (the §IV-B
// starvation setup of TestConcurrentEscalationFilterPressure), with
// aggregation under policy (nil disables it), and returns the
// deployment.
func runFilterPressure(t *testing.T, policy *AllocationPolicy) *ManyToOneDeployment {
	t.Helper()
	const attackers = 12
	opt := DefaultOptions()
	opt.FilterCapacity = 4
	opt.Allocation = policy
	dep := DeployManyToOne(ManyToOneOptions{
		Options:   opt,
		Attackers: attackers,
	})
	for i, a := range dep.Attackers {
		fl := dep.Flood(a, dep.Victim, 3e5)
		fl.SrcPort = uint16(5000 + i)
		fl.Launch()
	}
	dep.Run(10 * time.Second)
	return dep
}

// TestAggregationBoundsFilterTablePressure: with aggregation enabled,
// the victim gateway coalesces the sibling attackers (all inside
// 20.101.0/24) into covering prefix filters instead of rejecting the
// overflow, so the 4-slot table protects against all twelve flows —
// while the budget invariant still holds and the victim measurably
// receives less attack traffic than under reject-only starvation.
func TestAggregationBoundsFilterTablePressure(t *testing.T) {
	baseline := runFilterPressure(t, nil)
	aggregated := runFilterPressure(t, fixed24)

	st := aggregated.VictimGW.Stats()
	if st.Aggregations == 0 || st.AggregatedChildren < 2 {
		t.Fatalf("no aggregation under 3x capacity pressure: %+v", st)
	}
	if n := aggregated.Log.Count(EvAggregated); n == 0 {
		t.Fatal("no aggregated trace events")
	}
	if st.AggregateCollateral == 0 {
		t.Fatal("collateral-damage accounting not emitted")
	}

	// The coarser filters must still respect the hardware budget.
	fs := aggregated.VictimGW.DataPlane().FilterStats()
	if fs.PeakOccupancy > 4 {
		t.Fatalf("filter peak %d exceeded capacity 4 under aggregation", fs.PeakOccupancy)
	}
	// Aggregation conserves slots: occupancy arithmetic balances.
	live := int64(fs.Installed) + int64(fs.Aggregates) - int64(fs.Removed) -
		int64(fs.Aggregated) - int64(fs.Expired) - int64(fs.Evicted)
	if live != int64(aggregated.VictimGW.DataPlane().Len()) {
		t.Fatalf("stats arithmetic %d != occupancy %d (%+v)",
			live, aggregated.VictimGW.DataPlane().Len(), fs)
	}

	// The point of the fallback: the starved table now suppresses far
	// more of the flood than reject-only starvation does.
	baseBytes := baseline.Victim.Meter.Bytes
	aggBytes := aggregated.Victim.Meter.Bytes
	if aggBytes >= baseBytes {
		t.Fatalf("aggregation did not improve suppression: %d B vs baseline %d B", aggBytes, baseBytes)
	}
	if float64(aggBytes) > 0.7*float64(baseBytes) {
		t.Fatalf("aggregation gain too small: %d B vs baseline %d B", aggBytes, baseBytes)
	}

	// After the run, the aggregates quiesce (expire or split back).
	aggregated.Run(30 * time.Second)
	if n := aggregated.Log.Count(EvDeaggregated); n == 0 {
		t.Fatal("aggregates never quiesced after the attack window")
	}

	// The aggregate labels are genuine source prefixes over the sibling
	// space, never covering the victim's own network.
	for _, e := range aggregated.Log.OfKind(EvAggregated) {
		if e.Flow.SrcPrefixLen == 0 {
			t.Fatalf("aggregate without a source prefix: %v", e.Flow)
		}
		if e.Flow.CoversSrc(flow.MakeAddr(10, 0, 0, 2)) {
			t.Fatalf("aggregate %v covers the victim's own address", e.Flow)
		}
	}
}

// TestSplitBackRespectsCapacityAndDeadlines pins deaggregation
// correctness on a table so small it keeps no headroom quarter
// (capacity 3, capacity/4 == 0): when relief lets an aggregate split
// back into its live children, the aggregate must be removed before
// the children are reinstalled — the reverse order transiently needs
// len(children)+1 slots, overflows the table, and silently rejects a
// child before its original deadline. The whole review runs within one
// simulator event, so remove-first opens no gap.
func TestSplitBackRespectsCapacityAndDeadlines(t *testing.T) {
	const capacity = 3
	opt := DefaultOptions()
	opt.FilterCapacity = capacity
	opt.Allocation = fixed24
	dep := DeployManyToOne(ManyToOneOptions{Options: opt, Attackers: 28})
	for i, a := range dep.Attackers {
		fl := dep.Flood(a, dep.Victim, 3e5)
		fl.SrcPort = uint16(5000 + i)
		// The first four flows overflow the table together; after that,
		// waves of three arrive every 250 ms. Each covered request is
		// recorded as an aggregate child with its own Ttmp deadline, so
		// relief comes child by child and the review keeps splitting
		// aggregates back while several children are still live —
		// repeatedly landing on the live == capacity boundary.
		if i >= 4 {
			fl.Start = time.Duration(1+(i-4)/3) * 250 * time.Millisecond
		}
		fl.Stop = fl.Start + 3*time.Second
		fl.Launch()
	}
	dep.Run(80 * time.Second)

	st := dep.VictimGW.Stats()
	if st.Aggregations == 0 {
		t.Fatalf("no aggregation under pressure: %+v", st)
	}
	if st.AggregateSplits == 0 {
		t.Fatalf("no split-back after relief: %+v", st)
	}
	// The heart of the regression: no child may be rejected during
	// split-back (the old install-before-remove order lost one exactly
	// at the capacity boundary).
	for _, e := range dep.Log.OfKind(EvFilterRejected) {
		if strings.HasPrefix(e.Detail, "split-back:") {
			t.Fatalf("split-back rejected child %v: %s", e.Flow, e.Detail)
		}
	}
	fs := dep.VictimGW.DataPlane().FilterStats()
	if fs.PeakOccupancy > capacity {
		t.Fatalf("filter peak %d exceeded capacity %d mid-split", fs.PeakOccupancy, capacity)
	}
	// Budget arithmetic stays exact through aggregate→relief→split.
	live := int64(fs.Installed) + int64(fs.Aggregates) - int64(fs.Removed) -
		int64(fs.Aggregated) - int64(fs.Expired) - int64(fs.Evicted)
	if live != int64(dep.VictimGW.DataPlane().Len()) {
		t.Fatalf("stats arithmetic %d != occupancy %d (%+v)",
			live, dep.VictimGW.DataPlane().Len(), fs)
	}
	// Nothing outlives its original deadline: the last filter was
	// requested before ~9s and T is one minute, so by 80s the table
	// must have drained completely.
	if n := dep.VictimGW.DataPlane().Len(); n != 0 {
		t.Fatalf("%d filters outlived every original deadline", n)
	}
	if n := dep.Log.Count(EvDeaggregated); n == 0 {
		t.Fatal("no deaggregation trace events")
	}
}

// runCollateralContrast reruns the §IV-B pressure setup with a twist:
// a legitimate low-rate sender lives inside the attackers' /24 (but
// outside their /28), so the fixed /24 policy blocks it as collateral
// while a collateral-aware allocation need not. Sites 0..11 attack,
// site 15 (20.101.0.16) sends legitimately below the detection
// threshold.
func runCollateralContrast(t *testing.T, policy *AllocationPolicy) (legitBytes, attackBytes uint64, dep *ManyToOneDeployment) {
	t.Helper()
	opt := DefaultOptions()
	opt.FilterCapacity = 4
	opt.Allocation = policy
	dep = DeployManyToOne(ManyToOneOptions{Options: opt, Attackers: 16})
	for i := 0; i < 12; i++ {
		fl := dep.Flood(dep.Attackers[i], dep.Victim, 3e5)
		fl.SrcPort = uint16(5000 + i)
		fl.Launch()
	}
	legit := dep.Flood(dep.Attackers[15], dep.Victim, 15_000) // under the 25k detector
	legit.SrcPort = 6000
	legit.Launch()
	dep.Run(10 * time.Second)

	legitAddr := dep.Attackers[15].Node().Addr()
	if m := dep.Victim.PerSource[legitAddr]; m != nil {
		legitBytes = m.Bytes
	}
	for i := 0; i < 12; i++ {
		if m := dep.Victim.PerSource[dep.Attackers[i].Node().Addr()]; m != nil {
			attackBytes += m.Bytes
		}
	}
	return legitBytes, attackBytes, dep
}

// TestAllocatorSparesLegitSibling is the acceptance bar for the
// collateral-aware allocator: on the same deterministic pressure
// setup, it must deliver strictly more legitimate bytes (strictly less
// collateral) than the fixed-/24 policy at equal-or-better attack
// suppression, because it covers the twelve /28 siblings without
// touching the legit sender sharing their /24.
func TestAllocatorSparesLegitSibling(t *testing.T) {
	legitFixed, attackFixed, fixed := runCollateralContrast(t, fixed24)
	legitAlloc, attackAlloc, alloced := runCollateralContrast(t,
		&AllocationPolicy{PrefixLens: []uint8{28, 26, 24}})

	fs, as := fixed.VictimGW.Stats(), alloced.VictimGW.Stats()
	if fs.Aggregations == 0 || as.Aggregations == 0 {
		t.Fatalf("pressure did not force aggregation: fixed=%+v alloc=%+v", fs, as)
	}
	// The fixed /24 must actually have blocked the legit sibling —
	// otherwise this test proves nothing.
	legitAddr := fixed.Attackers[15].Node().Addr()
	coveredByFixed := false
	for _, e := range fixed.Log.OfKind(EvAggregated) {
		if e.Flow.CoversSrc(legitAddr) {
			coveredByFixed = true
		}
	}
	if !coveredByFixed {
		t.Fatal("fixed-/24 run never covered the legit sibling; setup is wrong")
	}
	// The allocator must never cover it.
	for _, e := range alloced.Log.OfKind(EvAggregated) {
		if e.Flow.CoversSrc(legitAddr) {
			t.Fatalf("allocator aggregate %v covers the legit sender", e.Flow)
		}
	}
	// Strictly fewer collateral legit bytes: same offered legit load,
	// strictly more of it delivered.
	if legitAlloc <= legitFixed {
		t.Fatalf("allocator delivered %d legit B vs fixed %d — no collateral win",
			legitAlloc, legitFixed)
	}
	// At equal-or-better attack suppression.
	if attackAlloc > attackFixed {
		t.Fatalf("allocator let through %d attack B vs fixed %d", attackAlloc, attackFixed)
	}
	// The covered-address accounting agrees with the byte outcome.
	if as.AggregateCollateral >= fs.AggregateCollateral {
		t.Fatalf("allocator covered-address collateral %d not below fixed %d",
			as.AggregateCollateral, fs.AggregateCollateral)
	}
}
