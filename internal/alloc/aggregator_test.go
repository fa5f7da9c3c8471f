package alloc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aitf/internal/cluster"
	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/sim"
)

// aggHarness is an aggregator over a bare engine whose clock the test
// sets and an unarmed detection plane, with its trace captured.
type aggHarness struct {
	now    filter.Time
	dp     *dataplane.Engine
	agg    *Aggregator
	events []obs.Record
}

// idleClock arms nothing: the harness runs Review itself, at the
// instants it chooses.
type idleClock struct{}

func (idleClock) Now() time.Duration                  { return 0 }
func (idleClock) Arm(time.Duration, func()) sim.Timer { return sim.Timer{} }
func (idleClock) Stop(sim.Timer)                      {}

func newAggHarness(capacity int, policy *Policy) *aggHarness {
	h := &aggHarness{}
	h.dp = dataplane.New(dataplane.Config{
		FilterCapacity: capacity,
		Clock:          dataplane.ClockFunc(func() filter.Time { return h.now }),
	})
	plane := cluster.NewPlane(detect.Config{}, nil, cluster.Config{}, nil)
	h.agg = NewAggregator(h.dp, policy, plane, func(k obs.EventKind, l flow.Label, detail string) {
		h.events = append(h.events, obs.Record{At: h.now, Kind: k, Flow: l, Detail: detail})
	}, idleClock{}, time.Second)
	return h
}

// rejections returns the rejected-filter events whose detail starts
// with prefix.
func (h *aggHarness) rejections(prefix string) []obs.Record {
	var out []obs.Record
	for _, e := range h.events {
		if e.Kind == obs.EvFilterRejected && strings.HasPrefix(e.Detail, prefix) {
			out = append(out, e)
		}
	}
	return out
}

// covered reports whether a live filter covers label at h.now.
func (h *aggHarness) covered(label flow.Label) bool {
	for _, e := range h.dp.FilterEntries() {
		if e.ExpiresAt > h.now && e.Label.Covers(label) {
			return true
		}
	}
	return false
}

// TestSplitBackAtCapacityBoundary pins the remove-before-reinstall
// order on the exact boundary a headroom-less table (capacity < 4, so
// capacity/4 == 0) allows: an aggregate with two live children splits
// back while an unrelated filter holds a third slot. Installing the
// children before removing the aggregate transiently needs four slots
// of a three-slot table and silently rejects the second child before
// its deadline; removing the aggregate first fits exactly.
func TestSplitBackAtCapacityBoundary(t *testing.T) {
	h := newAggHarness(3, &Policy{PrefixLens: []uint8{24}})
	victim := flow.MakeAddr(10, 0, 0, 2)
	a1 := flow.PairLabel(flow.MakeAddr(20, 101, 0, 1), victim)
	a2 := flow.PairLabel(flow.MakeAddr(20, 101, 0, 2), victim)
	outside := flow.PairLabel(flow.MakeAddr(30, 101, 0, 1), victim)
	exp := filter.Time(10 * time.Second)

	group := filter.SiblingGroup{
		Aggregate: flow.SrcPrefixLabel(flow.MakeAddr(20, 101, 0, 1).Mask(24), 24, victim),
		Children: []filter.Entry{
			{Label: a1, ExpiresAt: exp},
			{Label: a2, ExpiresAt: exp},
		},
		MaxExpiry: exp,
	}
	if err := h.dp.Install(a1, 0, exp); err != nil {
		t.Fatal(err)
	}
	if err := h.dp.Install(a2, 0, exp); err != nil {
		t.Fatal(err)
	}
	if replaced, err := h.dp.Aggregate(group.Aggregate, group.ChildLabels(), 0, exp); err != nil || replaced != 2 {
		t.Fatalf("aggregate setup: replaced %d, err %v", replaced, err)
	}
	h.agg.Adopt([]Aggregate{{Label: group.Aggregate.Key(), Children: group.Children, Exp: exp}}, 0)
	if err := h.dp.Install(outside, 0, exp); err != nil {
		t.Fatal(err)
	}
	if n := h.dp.Len(); n != 2 {
		t.Fatalf("setup occupancy %d, want 2 (aggregate + outside)", n)
	}

	// Relief: the table has exactly enough room for full precision —
	// but only if the aggregate's slot is reclaimed first.
	h.now = filter.Time(time.Second)
	h.agg.Review(h.now)

	if rej := h.rejections("split-back:"); len(rej) != 0 {
		t.Fatalf("split-back rejected a child at the capacity boundary: %v", rej)
	}
	if n := h.agg.Stats().Splits; n != 1 {
		t.Fatalf("Splits = %d, want 1", n)
	}
	if len(h.agg.aggregates) != 0 {
		t.Fatalf("aggregate record survived the split: %v", h.agg.Export())
	}
	// Full precision restored: both children and the unrelated filter.
	for _, l := range []flow.Label{a1, a2, outside} {
		if _, ok := h.dp.Get(l, h.now); !ok {
			t.Fatalf("label %v missing after split-back", l)
		}
	}
	if _, ok := h.dp.Get(group.Aggregate, h.now); ok {
		t.Fatalf("aggregate %v still installed after split-back", group.Aggregate)
	}
	if n := h.dp.Len(); n != 3 {
		t.Fatalf("occupancy %d after split-back, want 3", n)
	}
}

// TestSplitBackHonorsOriginalDeadlines: a child whose original filter
// window already ended is not resurrected by the split, and reinstalled
// children keep their original deadlines instead of a fresh window.
func TestSplitBackHonorsOriginalDeadlines(t *testing.T) {
	h := newAggHarness(3, &Policy{PrefixLens: []uint8{24}})
	victim := flow.MakeAddr(10, 0, 0, 2)
	early := flow.PairLabel(flow.MakeAddr(20, 101, 0, 1), victim)
	late := flow.PairLabel(flow.MakeAddr(20, 101, 0, 2), victim)
	earlyExp := filter.Time(2 * time.Second)
	lateExp := filter.Time(10 * time.Second)

	agg := flow.SrcPrefixLabel(flow.MakeAddr(20, 101, 0, 1).Mask(24), 24, victim)
	if err := h.dp.Install(early, 0, earlyExp); err != nil {
		t.Fatal(err)
	}
	if err := h.dp.Install(late, 0, lateExp); err != nil {
		t.Fatal(err)
	}
	children := []filter.Entry{
		{Label: early, ExpiresAt: earlyExp},
		{Label: late, ExpiresAt: lateExp},
	}
	if replaced, err := h.dp.Aggregate(agg, []flow.Label{early, late}, 0, lateExp); err != nil || replaced != 2 {
		t.Fatalf("aggregate setup: replaced %d, err %v", replaced, err)
	}
	h.agg.Adopt([]Aggregate{{Label: agg.Key(), Children: children, Exp: lateExp}}, 0)

	// Review after the early child's deadline: only the late child may
	// come back.
	h.now = filter.Time(3 * time.Second)
	h.agg.Review(h.now)

	if _, ok := h.dp.Get(early, h.now); ok {
		t.Fatalf("expired child %v resurrected past its original deadline", early)
	}
	if _, ok := h.dp.Get(late, h.now); !ok {
		t.Fatalf("live child %v lost in split-back", late)
	}
	if rej := h.rejections("split-back:"); len(rej) != 0 {
		t.Fatalf("unexpected split-back rejections: %v", rej)
	}
	// The reinstalled child keeps its original deadline: gone right
	// after lateExp.
	if _, ok := h.dp.Get(late, lateExp+1); ok {
		t.Fatalf("child %v outlived its original deadline", late)
	}
}

// TestCoveredReRequestKeepsGrantedDeadline: a re-request for a flow
// that a live aggregate covers, but whose exact filter (left by an
// earlier split-back) already runs longer, must not shorten the
// deadline the aggregate records for it. Otherwise a refinement folds
// the exact filter into a deeper cover and the split-back after it
// reinstalls the flow only until the re-request's earlier deadline,
// leaving it unfiltered for the rest of its original grant.
func TestCoveredReRequestKeepsGrantedDeadline(t *testing.T) {
	h := newAggHarness(8, &Policy{PrefixLens: []uint8{28, 26, 24, 20}})
	victim := flow.MakeAddr(10, 0, 0, 2)
	src := func(d byte) flow.Label { return flow.PairLabel(flow.MakeAddr(20, 0, 0, d), victim) }
	x := src(1)
	t0, t1 := filter.Time(30*time.Second), filter.Time(100*time.Second)
	yExp := filter.Time(50 * time.Second)

	// 1. An exact filter for x runs until t1.
	if err := h.dp.Install(x, 0, t1); err != nil {
		t.Fatal(err)
	}
	// 2. A live /20 aggregate covers x without listing it.
	wide := flow.SrcPrefixLabel(flow.MakeAddr(20, 0, 0, 0), 20, victim)
	ys := []filter.Entry{{Label: src(2), ExpiresAt: yExp}, {Label: src(3), ExpiresAt: yExp}, {Label: src(4), ExpiresAt: yExp}}
	if err := h.dp.Install(wide, 0, yExp); err != nil {
		t.Fatal(err)
	}
	h.agg.Adopt([]Aggregate{{Label: wide.Key(), Children: ys, Exp: yExp}}, 0)
	fillers := make([]flow.Label, 3)
	for i := range fillers {
		fillers[i] = flow.PairLabel(flow.MakeAddr(30, 0, 0, byte(i+1)), victim)
		if err := h.dp.Install(fillers[i], 0, yExp); err != nil {
			t.Fatal(err)
		}
	}

	// 3. A re-request for x until t0 < t1 takes the covered path.
	h.now = filter.Time(time.Second)
	if err := h.agg.Install(x, h.now, t0); err != nil {
		t.Fatal(err)
	}
	if n := h.agg.Stats().Covered; n != 1 {
		t.Fatalf("Covered = %d, want 1", n)
	}

	// 4. With one spare slot the /20 cannot split back, so it is
	// refined into a deeper cover that folds the exact x filter in.
	h.now = filter.Time(2 * time.Second)
	h.agg.Review(h.now)
	if n := h.agg.Stats().Refinements; n != 1 {
		t.Fatalf("Refinements = %d, want 1", n)
	}
	if _, ok := h.dp.Get(x, h.now); ok {
		t.Fatal("refinement left the exact x filter in place")
	}

	// 5. Pressure subsides and the deeper cover splits back.
	for _, f := range fillers {
		h.dp.Remove(f)
	}
	h.now = filter.Time(3 * time.Second)
	h.agg.Review(h.now)
	if n := h.agg.Stats().Splits; n != 1 {
		t.Fatalf("Splits = %d, want 1", n)
	}

	// x keeps its original grant through (t0, t1).
	for _, at := range []filter.Time{t0 + time.Second, t1 - time.Second} {
		h.now = at
		if !h.covered(x) {
			t.Fatalf("x unfiltered at %v, inside the grant that runs until %v", at, t1)
		}
	}
}

// fuzzPolicies are the allocation policies FuzzAggregator draws from.
var fuzzPolicies = []Policy{
	{PrefixLens: []uint8{28, 26, 24, 20}},
	{PrefixLens: []uint8{24}},
	{},
}

// FuzzAggregator drives random install / review / expire scripts on a
// bare engine through runAggregatorScript.
func FuzzAggregator(f *testing.F) {
	f.Add([]byte{6, 0, 0, 1, 0, 2, 0, 3, 4, 4, 2, 0, 3, 9, 2, 0})
	f.Add([]byte{3, 1, 0, 1, 4, 2, 8, 3, 1, 17, 2, 0, 3, 2, 6, 9})
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := runAggregatorScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// maxScriptSteps bounds one script, keeping each fuzz input cheap.
const maxScriptSteps = 128

// runAggregatorScript runs one script and checks the aggregator's two
// safety properties after every step, returning the first violation:
//
//   - no silent loss: an install that succeeded stays covered by a live
//     filter until its deadline, unless a filter-rejected event was
//     traced for that label;
//   - no immortal filter: no installed filter outlives the latest
//     deadline granted to any label it covers.
//
// The script's first byte sets the capacity (2–13) and its second the
// policy; each following pair of bytes is one step.
func runAggregatorScript(script []byte) error {
	if len(script) < 2 {
		return nil
	}
	policy := fuzzPolicies[int(script[1])%len(fuzzPolicies)]
	h := newAggHarness(2+int(script[0])%12, &policy)
	granted := map[flow.Label]filter.Time{}
	rejected := map[flow.Label]bool{}
	for step, i := 0, 2; step < maxScriptSteps && i+1 < len(script); step, i = step+1, i+2 {
		op, arg := script[i], script[i+1]
		switch op % 4 {
		case 0, 1:
			// Sources spread over the sixteen /24s of one /20, so sibling
			// groups form at every policy length.
			src := flow.MakeAddr(20, 0, arg>>4, (arg&0x0f)*8)
			label := flow.PairLabel(src, flow.MakeAddr(10, 0, 0, 2+(op>>7)))
			exp := h.now + filter.Time(1+(op>>2)%16)*time.Second
			if h.agg.Install(label, h.now, exp) == nil {
				granted[label] = max(granted[label], exp)
			}
		case 2:
			h.agg.Review(h.now)
		case 3:
			h.now += filter.Time(1+arg%8) * 500 * time.Millisecond
			h.dp.Expire(h.now)
		}
		for _, e := range h.events {
			if e.Kind == obs.EvFilterRejected {
				rejected[e.Flow] = true
			}
		}
		h.events = h.events[:0]

		var live []filter.Entry
		for _, e := range h.dp.FilterEntries() {
			if e.ExpiresAt > h.now {
				live = append(live, e)
			}
		}
		for label, exp := range granted {
			if exp <= h.now || rejected[label] {
				continue
			}
			covered := false
			for _, e := range live {
				covered = covered || e.Label.Covers(label)
			}
			if !covered {
				return fmt.Errorf("step %d at %v: %v granted until %v is unfiltered", step, h.now, label, exp)
			}
		}
		for _, e := range live {
			var latest filter.Time
			for label, exp := range granted {
				if e.Label.Covers(label) {
					latest = max(latest, exp)
				}
			}
			if e.ExpiresAt > latest {
				return fmt.Errorf("step %d at %v: %v runs until %v, past every grant it covers (latest %v)",
					step, h.now, e.Label, e.ExpiresAt, latest)
			}
		}
	}
	return nil
}
