// The executable contract of the bounded filter bank and shadow log.
// The one implementation is dataplane.Engine, so every test here drives
// an engine — from an external test package, because dataplane imports
// filter — and runs at one and at four shards: verdicts and accounting
// must not depend on how the lookup work is partitioned.
package filter_test

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"aitf/internal/dataplane"
	"aitf/internal/filter"
	"aitf/internal/flow"
)

var (
	a1 = flow.MakeAddr(10, 0, 0, 1)
	a2 = flow.MakeAddr(10, 0, 0, 2)
	v1 = flow.MakeAddr(10, 9, 0, 1)
)

func pair(i byte) flow.Label {
	return flow.PairLabel(flow.MakeAddr(10, 0, 1, i), v1)
}

func aggChild(i int, dst flow.Addr) flow.Label {
	return flow.PairLabel(flow.MakeAddr(240, 1, 2, byte(i)), dst)
}

// bank is an engine under a clock the test sets. The control-plane
// calls take their own "now"; only classification reads the clock.
type bank struct {
	*dataplane.Engine
	now filter.Time
}

func newBank(shards, filters, shadows int, policy filter.EvictPolicy) *bank {
	b := &bank{}
	b.Engine = dataplane.New(dataplane.Config{
		Shards:         shards,
		FilterCapacity: filters,
		ShadowCapacity: shadows,
		Evict:          policy,
		ShadowLookup:   true,
		Clock:          dataplane.ClockFunc(func() filter.Time { return b.now }),
	})
	return b
}

// classify returns the verdict for tup at clock time now.
func (b *bank) classify(tup flow.Tuple, payloadBytes int, now filter.Time) dataplane.Verdict {
	b.now = now
	return b.ClassifyTuple(tup, payloadBytes)
}

// live is the Stats identity every test below may rely on: each entry
// that left the bank is counted under exactly one reason.
func live(st filter.Stats) int64 {
	return int64(st.Installed) + int64(st.Aggregates) - int64(st.Removed) -
		int64(st.Aggregated) - int64(st.Expired) - int64(st.Evicted)
}

func eachShardCount(t *testing.T, fn func(t *testing.T, shards int)) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, n) })
	}
}

func TestInstallAndMatch(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 4, 0, filter.RejectNew)
		l := flow.PairLabel(a1, v1)
		if err := tb.Install(l, 0, time.Minute); err != nil {
			t.Fatal(err)
		}
		tup := flow.TupleOf(a1, v1, flow.ProtoUDP, 5, 80)
		if !tb.classify(tup, 100, time.Second).Drop {
			t.Fatal("installed filter did not match")
		}
		if tb.classify(flow.TupleOf(a2, v1, flow.ProtoUDP, 5, 80), 100, time.Second).Drop {
			t.Fatal("unrelated tuple matched")
		}
		st := tb.FilterStats()
		if st.Drops != 1 || st.DroppedBytes != 100 {
			t.Fatalf("stats = %+v", st)
		}
		e, ok := tb.Get(l, time.Second)
		if !ok || e.Drops != 1 || e.DroppedBytes != 100 {
			t.Fatalf("Get entry = %+v ok=%v", e, ok)
		}
		// Get hands out a copy: a later drop does not reach it.
		tb.classify(tup, 100, time.Second)
		if e.Drops != 1 {
			t.Fatalf("Get result aliased the live entry: %+v", e)
		}
	})
}

func TestMatchExpired(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 4, 0, filter.RejectNew)
		tb.Install(flow.PairLabel(a1, v1), 0, time.Second)
		tup := flow.TupleOf(a1, v1, flow.ProtoUDP, 5, 80)
		if tb.classify(tup, 10, 2*time.Second).Drop {
			t.Fatal("expired filter matched")
		}
		if _, ok := tb.Get(flow.PairLabel(a1, v1), 2*time.Second); ok {
			t.Fatal("expired filter returned by Get")
		}
	})
}

func TestCapacityRejectNew(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 2, 0, filter.RejectNew)
		if err := tb.Install(pair(1), 0, time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := tb.Install(pair(2), 0, time.Minute); err != nil {
			t.Fatal(err)
		}
		err := tb.Install(pair(3), 0, time.Minute)
		if !errors.Is(err, filter.ErrTableFull) {
			t.Fatalf("err = %v, want ErrTableFull", err)
		}
		if tb.FilterStats().Rejected != 1 {
			t.Fatalf("Rejected = %d", tb.FilterStats().Rejected)
		}
		// Re-installing an existing label must succeed even when full.
		if err := tb.Install(pair(1), time.Second, 2*time.Minute); err != nil {
			t.Fatalf("refresh failed: %v", err)
		}
	})
}

func TestCapacityEvictSoonest(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 2, 0, filter.EvictSoonest)
		tb.Install(pair(1), 0, 10*time.Second) // soonest expiry
		tb.Install(pair(2), 0, time.Minute)
		if err := tb.Install(pair(3), 0, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		if tb.Len() != 2 {
			t.Fatalf("Len = %d", tb.Len())
		}
		if _, ok := tb.Get(pair(1), time.Second); ok {
			t.Fatal("soonest-expiring entry not evicted")
		}
		if tb.FilterStats().Evicted != 1 {
			t.Fatalf("Evicted = %d", tb.FilterStats().Evicted)
		}
	})
}

func TestInstallMakesRoomByExpiring(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 1, 0, filter.RejectNew)
		tb.Install(pair(1), 0, time.Second)
		// At t=2s the first filter is dead; Install must GC and succeed.
		if err := tb.Install(pair(2), 2*time.Second, time.Minute); err != nil {
			t.Fatalf("Install after expiry: %v", err)
		}
	})
}

func TestRefreshExtendsOnly(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 2, 0, filter.RejectNew)
		tb.Install(pair(1), 0, time.Minute)
		tb.Install(pair(1), 0, 30*time.Second) // shorter: must not shrink
		e, ok := tb.Get(pair(1), 0)
		if !ok || e.ExpiresAt != time.Minute {
			t.Fatalf("expiry = %v, want 1m", e.ExpiresAt)
		}
		if tb.FilterStats().Installed != 1 {
			t.Fatalf("Installed = %d, want 1 (refresh is not a new install)", tb.FilterStats().Installed)
		}
	})
}

func TestRemove(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 2, 0, filter.RejectNew)
		tb.Install(pair(1), 0, time.Minute)
		if !tb.Remove(pair(1)) {
			t.Fatal("Remove returned false")
		}
		if tb.Remove(pair(1)) {
			t.Fatal("second Remove returned true")
		}
		if tb.Len() != 0 {
			t.Fatalf("Len = %d", tb.Len())
		}
	})
}

func TestExpireAndNextExpiry(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 8, 0, filter.RejectNew)
		tb.Install(pair(1), 0, 10*time.Second)
		tb.Install(pair(2), 0, 20*time.Second)
		tb.Install(pair(3), 0, 30*time.Second)
		// FilterEntries lists the soonest deadline first.
		if es := tb.FilterEntries(); len(es) != 3 || es[0].ExpiresAt != 10*time.Second {
			t.Fatalf("FilterEntries = %+v", es)
		}
		if n := tb.Expire(15 * time.Second); n != 1 {
			t.Fatalf("Expire removed %d, want 1", n)
		}
		if es := tb.FilterEntries(); len(es) != 2 || es[0].ExpiresAt != 20*time.Second {
			t.Fatalf("FilterEntries after GC = %+v", es)
		}
		tb.Expire(time.Hour)
		if es := tb.FilterEntries(); len(es) != 0 || tb.Len() != 0 {
			t.Fatalf("bank not empty after expiring all: %+v", es)
		}
	})
}

func TestPeakOccupancy(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 10, 0, filter.RejectNew)
		for i := byte(0); i < 7; i++ {
			tb.Install(pair(i), 0, time.Minute)
		}
		tb.Remove(pair(0))
		tb.Remove(pair(1))
		if tb.FilterStats().PeakOccupancy != 7 {
			t.Fatalf("PeakOccupancy = %d, want 7", tb.FilterStats().PeakOccupancy)
		}
	})
}

func TestEntriesSorted(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 8, 0, filter.RejectNew)
		tb.Install(pair(3), 0, 30*time.Second)
		tb.Install(pair(1), 0, 10*time.Second)
		tb.Install(pair(2), 0, 20*time.Second)
		es := tb.FilterEntries()
		if len(es) != 3 {
			t.Fatalf("len = %d", len(es))
		}
		for i := 1; i < len(es); i++ {
			if es[i].ExpiresAt < es[i-1].ExpiresAt {
				t.Fatal("FilterEntries not sorted by expiry")
			}
		}
	})
}

func TestZeroCapacityTable(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 0, 0, filter.EvictSoonest)
		if err := tb.Install(pair(1), 0, time.Minute); !errors.Is(err, filter.ErrTableFull) {
			t.Fatalf("zero-capacity Install err = %v", err)
		}
		tb2 := newBank(shards, -5, 0, filter.RejectNew)
		if tb2.FilterCapacity() != 0 {
			t.Fatalf("negative capacity clamped to %d", tb2.FilterCapacity())
		}
	})
}

func TestWildcardScanMatch(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		tb := newBank(shards, 4, 0, filter.RejectNew)
		// A source-only label is neither exact nor pair shaped, and names
		// no destination: no keyed probe finds it.
		tb.Install(flow.Label{Src: a1, Wildcards: flow.WildDst | flow.WildProto | flow.WildSrcPort | flow.WildDstPort}, 0, time.Minute)
		if !tb.classify(flow.TupleOf(a1, v1, flow.ProtoTCP, 9, 9), 10, time.Second).Drop {
			t.Fatal("source-only filter did not match")
		}
		if tb.classify(flow.TupleOf(a2, v1, flow.ProtoTCP, 9, 9), 10, time.Second).Drop {
			t.Fatal("source-only filter matched wrong source")
		}
	})
}

// Property: occupancy never exceeds capacity regardless of operations,
// and the Stats identity tracks it.
func TestPropertyOccupancyBounded(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		f := func(ops []byte, capRaw uint8) bool {
			capacity := int(capRaw%16) + 1
			policy := filter.RejectNew
			if capRaw%2 == 0 {
				policy = filter.EvictSoonest
			}
			tb := newBank(shards, capacity, 0, policy)
			now := filter.Time(0)
			for _, op := range ops {
				now += filter.Time(op) * time.Millisecond
				l := pair(op % 32)
				switch op % 3 {
				case 0:
					tb.Install(l, now, now+filter.Time(op)*time.Second)
				case 1:
					tb.Remove(l)
				case 2:
					tb.Expire(now)
				}
				if tb.Len() > capacity || live(tb.FilterStats()) != int64(tb.Len()) {
					return false
				}
			}
			return tb.FilterStats().PeakOccupancy <= capacity
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTableAggregateConservesBudget pins the quota contract of
// Aggregate: replacing k children with one aggregate frees exactly k−1
// slots, double-counts nothing in the stats arithmetic, leaks nothing
// through repeated cycles, and preserves coverage time.
func TestTableAggregateConservesBudget(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		const capacity = 8
		dst := flow.MakeAddr(10, 0, 0, 9)
		tb := newBank(shards, capacity, 0, filter.RejectNew)
		for i := 0; i < capacity; i++ {
			if err := tb.Install(aggChild(i, dst), 0, filter.Time(i+1)*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.Install(aggChild(99, dst), 0, time.Minute); err == nil {
			t.Fatal("bank should be full")
		}

		groups := filter.SiblingGroups(tb.FilterEntries(), 24, 2)
		if len(groups) != 1 {
			t.Fatalf("groups: %+v", groups)
		}
		g := groups[0]
		if k, err := tb.Aggregate(g.Aggregate, g.ChildLabels(), 0, time.Second); err != nil || k != capacity {
			t.Fatalf("Aggregate replaced %d, err %v; want %d, nil", k, err, capacity)
		}
		if tb.Len() != 1 {
			t.Fatalf("Len after aggregate = %d, want 1 (k slots freed, 1 consumed)", tb.Len())
		}
		st := tb.FilterStats()
		if st.Aggregates != 1 || st.Aggregated != uint64(capacity) {
			t.Fatalf("aggregation stats: %+v", st)
		}
		if st.Removed != 0 {
			t.Fatalf("children double-counted under Removed: %+v", st)
		}
		// Single-entry arithmetic balances against live occupancy.
		if live(st) != int64(tb.Len()) {
			t.Fatalf("stats arithmetic %d != occupancy %d (%+v)", live(st), tb.Len(), st)
		}
		// Coverage time conserved: the aggregate outlives the latest child
		// even though the caller asked for less.
		e, ok := tb.Get(g.Aggregate, 0)
		if !ok || e.ExpiresAt != filter.Time(capacity)*time.Second {
			t.Fatalf("aggregate deadline %+v, want %v", e, filter.Time(capacity)*time.Second)
		}
		// The aggregate still blocks every child flow.
		if !tb.classify(flow.TupleOf(flow.MakeAddr(240, 1, 2, 3), dst, flow.ProtoUDP, 1, 80), 10, 0).Drop {
			t.Fatal("aggregate does not match a child flow")
		}

		// Re-aggregating with the aggregate live refreshes it (no new entry,
		// no stat churn beyond newly folded children).
		if err := tb.Install(aggChild(50, dst), 0, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Aggregate(g.Aggregate, []flow.Label{aggChild(50, dst)}, 0, time.Second); err != nil {
			t.Fatal(err)
		}
		st = tb.FilterStats()
		if tb.Len() != 1 || st.Aggregates != 1 || st.Aggregated != uint64(capacity+1) {
			t.Fatalf("refresh cycle: len=%d stats=%+v", tb.Len(), st)
		}
		if e, _ := tb.Get(g.Aggregate, 0); e.ExpiresAt != 30*time.Second {
			t.Fatalf("refresh did not extend to late child: %+v", e)
		}

		// Aggregating nothing present falls back to a plain capacity-checked
		// install (here: fine, the bank has room).
		g2 := flow.SrcPrefixLabel(flow.MakeAddr(241, 0, 0, 0), 24, dst)
		if k, err := tb.Aggregate(g2, []flow.Label{aggChild(200, dst)}, 0, time.Second); err != nil || k != 0 {
			t.Fatalf("Aggregate of absent child replaced %d, err %v", k, err)
		}
		if tb.Len() != 2 {
			t.Fatalf("Len = %d", tb.Len())
		}
		// No leak across many cycles: install k children, aggregate, expire.
		now := filter.Time(0)
		for cycle := 0; cycle < 20; cycle++ {
			tb2 := newBank(shards, capacity, 0, filter.RejectNew)
			for i := 0; i < capacity; i++ {
				if err := tb2.Install(aggChild(i, dst), now, now+time.Second); err != nil {
					t.Fatal(err)
				}
			}
			gs := filter.SiblingGroups(tb2.FilterEntries(), 24, 2)
			if _, err := tb2.Aggregate(gs[0].Aggregate, gs[0].ChildLabels(), now, now+time.Second); err != nil {
				t.Fatal(err)
			}
			if tb2.Len() != 1 {
				t.Fatalf("cycle %d: leak, Len=%d", cycle, tb2.Len())
			}
			tb2.Expire(now + 2*time.Second)
			if tb2.Len() != 0 {
				t.Fatalf("cycle %d: aggregate did not expire", cycle)
			}
		}
	})
}

// TestTableAggregateRefreshConservesStats locks in the stats
// conservation contract for *repeated* aggregation into an existing
// aggregate — the refresh path: each round folds only the children
// actually present (counted once in Aggregated, never in Removed),
// installs no second aggregate entry, and keeps the occupancy identity
//
//	Installed + Aggregates − Removed − Aggregated − Expired − Evicted == Len
//
// exact, while the aggregate's deadline only ever ratchets upward.
func TestTableAggregateRefreshConservesStats(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		const capacity = 8
		dst := flow.MakeAddr(10, 0, 0, 9)
		tb := newBank(shards, capacity, 0, filter.RejectNew)
		agg := flow.SrcPrefixLabel(flow.MakeAddr(240, 1, 2, 0), 24, dst)

		conserved := func(when string) {
			t.Helper()
			if st := tb.FilterStats(); live(st) != int64(tb.Len()) {
				t.Fatalf("%s: stats arithmetic %d != occupancy %d (%+v)", when, live(st), tb.Len(), st)
			}
		}

		// Round 0 installs the aggregate the normal way, with a deadline
		// beyond the refresh rounds so it stays live throughout.
		for i := 0; i < 4; i++ {
			if err := tb.Install(aggChild(i, dst), 0, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tb.Aggregate(agg, []flow.Label{
			aggChild(0, dst), aggChild(1, dst), aggChild(2, dst), aggChild(3, dst),
		}, 0, time.Minute); err != nil {
			t.Fatal(err)
		}
		conserved("round 0")

		// Rounds 1..5 repeatedly aggregate fresh children into the already
		// installed aggregate.
		var wantAggregated uint64 = 4
		var lastDeadline filter.Time
		for round := 1; round <= 5; round++ {
			now := filter.Time(round) * time.Second
			a, b := aggChild(10+2*round, dst), aggChild(11+2*round, dst)
			childExp := now + filter.Time(round)*time.Second
			if err := tb.Install(a, now, childExp); err != nil {
				t.Fatal(err)
			}
			if err := tb.Install(b, now, childExp); err != nil {
				t.Fatal(err)
			}
			// The children list includes the aggregate's own key (must be
			// skipped, not folded into itself) and an absent label (must be
			// skipped without counting).
			children := []flow.Label{agg, a, b, aggChild(200+round, dst)}
			if k, err := tb.Aggregate(agg, children, now, now); err != nil || k != 2 {
				t.Fatalf("round %d: replaced %d, err %v; want 2, nil", round, k, err)
			}
			wantAggregated += 2
			st := tb.FilterStats()
			if st.Aggregates != 1 {
				t.Fatalf("round %d: refresh installed a second aggregate: %+v", round, st)
			}
			if st.Aggregated != wantAggregated {
				t.Fatalf("round %d: Aggregated %d, want %d (absent/self children must not count)",
					round, st.Aggregated, wantAggregated)
			}
			if st.Removed != 0 {
				t.Fatalf("round %d: children leaked into Removed: %+v", round, st)
			}
			if tb.Len() != 1 {
				t.Fatalf("round %d: occupancy %d, want 1", round, tb.Len())
			}
			conserved("refresh round")
			e, ok := tb.Get(agg, now)
			if !ok {
				t.Fatalf("round %d: aggregate missing", round)
			}
			if e.ExpiresAt < childExp || e.ExpiresAt < lastDeadline {
				t.Fatalf("round %d: deadline %v regressed (child %v, last %v)",
					round, e.ExpiresAt, childExp, lastDeadline)
			}
			lastDeadline = e.ExpiresAt
		}

		// A refresh with no present children is a pure deadline extension:
		// no counter moves.
		before := tb.FilterStats()
		if _, err := tb.Aggregate(agg, nil, 10*time.Second, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		if after := tb.FilterStats(); after != before {
			t.Fatalf("child-free refresh moved stats: %+v -> %+v", before, after)
		}
		if e, _ := tb.Get(agg, 10*time.Second); e.ExpiresAt != 2*time.Minute {
			t.Fatalf("child-free refresh did not extend deadline: %+v", e)
		}
		conserved("child-free refresh")
	})
}

func TestShadowLogLookupHit(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		c := newBank(shards, 0, 10, filter.RejectNew)
		l := flow.PairLabel(a1, v1)
		if !c.LogShadow(l, v1, 0, time.Minute) {
			t.Fatal("LogShadow failed")
		}
		// Classifying a covered packet is the lookup and records the
		// reappearance in the same step.
		v := c.classify(flow.TupleOf(a1, v1, flow.ProtoUDP, 1, 2), 0, time.Second)
		if v.Drop || !v.ShadowHit {
			t.Fatalf("verdict = %+v, want a shadow hit", v)
		}
		if v.Shadow.Reappearances != 1 || v.Shadow.Victim != v1 {
			t.Fatalf("hit snapshot = %+v", v.Shadow)
		}
		// A reappearance reported rather than observed counts the same way.
		e, ok := c.ShadowHit(l)
		if !ok || e.Reappearances != 2 {
			t.Fatalf("ShadowHit = %+v ok=%v", e, ok)
		}
		if c.ShadowStats().Hits != 2 {
			t.Fatalf("Hits = %d", c.ShadowStats().Hits)
		}
		if _, ok := c.ShadowHit(pair(9)); ok {
			t.Fatal("ShadowHit on a label never logged")
		}
	})
}

func TestShadowExpiry(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		c := newBank(shards, 0, 10, filter.RejectNew)
		c.LogShadow(flow.PairLabel(a1, v1), v1, 0, time.Second)
		if c.classify(flow.TupleOf(a1, v1, flow.ProtoUDP, 1, 2), 0, 2*time.Second).ShadowHit {
			t.Fatal("expired shadow entry returned")
		}
		if n := c.ExpireShadows(2 * time.Second); n != 1 {
			t.Fatalf("ExpireShadows = %d", n)
		}
	})
}

func TestShadowCapacity(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		c := newBank(shards, 0, 2, filter.RejectNew)
		c.LogShadow(pair(1), v1, 0, time.Minute)
		c.LogShadow(pair(2), v1, 0, time.Minute)
		if c.LogShadow(pair(3), v1, 0, time.Minute) {
			t.Fatal("over-capacity LogShadow succeeded")
		}
		if c.ShadowStats().Rejected != 1 {
			t.Fatalf("Rejected = %d", c.ShadowStats().Rejected)
		}
		// Refresh of existing entry succeeds even at capacity.
		if !c.LogShadow(pair(1), v1, time.Second, 2*time.Minute) {
			t.Fatal("refresh failed at capacity")
		}
		e, _ := c.ShadowGet(pair(1), time.Second)
		if e.ExpiresAt != 2*time.Minute {
			t.Fatalf("refresh expiry = %v", e.ExpiresAt)
		}
	})
}

func TestShadowDisabled(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		c := newBank(shards, 0, 0, filter.RejectNew)
		if c.LogShadow(pair(1), v1, 0, time.Minute) {
			t.Fatal("disabled cache accepted entry")
		}
		if c.classify(flow.TupleOf(a1, v1, flow.ProtoUDP, 1, 2), 0, 0).ShadowHit {
			t.Fatal("disabled cache returned entry")
		}
	})
}

func TestShadowRemoveAndEntries(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		c := newBank(shards, 0, 4, filter.RejectNew)
		c.LogShadow(pair(1), v1, 0, 30*time.Second)
		c.LogShadow(pair(2), v1, 0, 10*time.Second)
		es := c.ShadowEntries()
		if len(es) != 2 || es[0].ExpiresAt != 10*time.Second {
			t.Fatalf("ShadowEntries = %+v", es)
		}
		// A shadow record leaves the log only by expiry.
		if n := c.ExpireShadows(20 * time.Second); n != 1 || c.ShadowLen() != 1 {
			t.Fatalf("ExpireShadows removed %d, %d left; want 1, 1", n, c.ShadowLen())
		}
		if es := c.ShadowEntries(); len(es) != 1 || es[0].Label != pair(1) {
			t.Fatalf("ShadowEntries after expiry = %+v", es)
		}
	})
}

func TestShadowPeakSize(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		c := newBank(shards, 0, 100, filter.RejectNew)
		for i := byte(0); i < 50; i++ {
			c.LogShadow(pair(i), v1, 0, time.Minute)
		}
		if c.ShadowStats().PeakSize != 50 {
			t.Fatalf("PeakSize = %d", c.ShadowStats().PeakSize)
		}
	})
}
