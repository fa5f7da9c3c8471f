package alloc

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"aitf/internal/filter"
	"aitf/internal/flow"
)

// pairTraffic is a fixed in-memory Traffic view for tests.
type pairTraffic struct {
	pairs []pair
	base  map[flow.Addr]float64
}

type pair struct {
	src, dst flow.Addr
	bytes    uint64
	flagged  bool
}

func (t pairTraffic) Pairs(visit func(src, dst flow.Addr, bytes uint64, flagged bool)) {
	for _, p := range t.pairs {
		visit(p.src, p.dst, p.bytes, p.flagged)
	}
}

func (t pairTraffic) BaselineBps(dst flow.Addr) float64 { return t.base[dst] }

func entry(src flow.Addr, dst flow.Addr, exp filter.Time) filter.Entry {
	return filter.Entry{Label: flow.PairLabel(src, dst), ExpiresAt: exp}
}

func TestPolicyLens(t *testing.T) {
	if got := (Policy{}).Lens(); len(got) != len(DefaultPrefixLens) {
		t.Fatalf("default lens: %v", got)
	}
	got := Policy{PrefixLens: []uint8{24, 0, 16, 24, 32, 28, 99}}.Lens()
	want := []uint8{28, 24, 16}
	if len(got) != len(want) {
		t.Fatalf("lens %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lens %v, want %v (deepest first, degenerate dropped)", got, want)
		}
	}
}

// TestChooseAvoidsMeasuredLegitSender is the allocator's reason to
// exist: twelve attackers fill one /24, a measured legit sender lives
// in the same /24 but outside the attackers' /28s, and the allocator
// must free slots by covering the attackers at /28 — sparing the legit
// sender the fixed /24 policy would have blocked.
func TestChooseAvoidsMeasuredLegitSender(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 2)
	var entries []filter.Entry
	var traffic pairTraffic
	// Attackers 20.101.0.1..12: /28 groups 20.101.0.0/28 (1..12 → two
	// groups: .0/28 holds .1-.12? No: .1..15 in .0/28). Use 1..12, all
	// inside 20.101.0.0/28 except none — 1..12 < 16, one /28.
	for i := 1; i <= 12; i++ {
		src := flow.MakeAddr(20, 101, 0, byte(i))
		entries = append(entries, entry(src, dst, filter.Time(i)*time.Second))
		traffic.pairs = append(traffic.pairs, pair{src, dst, 3_000_000, true})
	}
	// The busy legit sender shares the /24 but not the /28.
	legit := flow.MakeAddr(20, 101, 0, 200)
	traffic.pairs = append(traffic.pairs, pair{legit, dst, 500_000, false})

	cfg := Config{Policy: Policy{PrefixLens: []uint8{28, 24}}, Traffic: traffic}
	plan := Choose(entries, 11, cfg)
	if plan.Freed < 11 {
		t.Fatalf("plan freed %d, want ≥ 11: %+v", plan.Freed, plan)
	}
	if len(plan.Picks) != 1 {
		t.Fatalf("want the single /28 pick, got %d picks", len(plan.Picks))
	}
	pick := plan.Picks[0]
	if pick.Aggregate.SrcPrefixLen != 28 {
		t.Fatalf("picked /%d, want /28 (the /24 would block the legit sender): %+v",
			pick.Aggregate.SrcPrefixLen, pick.Aggregate)
	}
	if pick.Aggregate.CoversSrc(legit) {
		t.Fatalf("pick %v covers the legit sender", pick.Aggregate)
	}
	if pick.LegitBytes != 0 || pick.Measured {
		t.Fatalf("the /28 pick should price zero collateral, got %+v", pick)
	}
	if plan.CollateralBytes != 0 {
		t.Fatalf("plan collateral %v, want 0", plan.CollateralBytes)
	}

	// The same entries under the fixed /24 grouping price the legit
	// sender's bytes as collateral — Assess makes that visible.
	g24 := filter.SiblingGroups(entries, 24)[0]
	c24 := Assess(g24, cfg)
	if !c24.Measured || c24.LegitBytes != 500_000 {
		t.Fatalf("/24 assessment %+v, want 500000 measured collateral bytes", c24)
	}
}

// TestChooseSpansLengths: when one /28 cannot free enough slots, the
// allocator mixes lengths — deeper where it suffices, wider where the
// pressure demands it — instead of failing or jumping straight to /16.
func TestChooseSpansLengths(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 2)
	var entries []filter.Entry
	// Two /28-sibling clusters in different /24s of the same /16.
	for i := 1; i <= 6; i++ {
		entries = append(entries, entry(flow.MakeAddr(20, 101, 0, byte(i)), dst, time.Minute))
		entries = append(entries, entry(flow.MakeAddr(20, 101, 7, byte(i)), dst, time.Minute))
	}
	cfg := Config{Policy: Policy{PrefixLens: []uint8{28, 24, 16}}}
	plan := Choose(entries, 10, cfg)
	if plan.Freed < 10 {
		t.Fatalf("plan freed %d, want ≥ 10: %+v", plan.Freed, plan)
	}
	if len(plan.Picks) != 2 {
		t.Fatalf("want two /28 picks, got %+v", plan.Picks)
	}
	for _, p := range plan.Picks {
		if p.Aggregate.SrcPrefixLen != 28 {
			t.Fatalf("pick /%d, want /28 (no measurements → deepest wins)", p.Aggregate.SrcPrefixLen)
		}
	}
	// Needing more than the /28s can free forces the wider prefix.
	wide := Choose(entries, 11, cfg)
	if wide.Freed < 11 {
		t.Fatalf("wide plan freed %d, want ≥ 11: %+v", wide.Freed, wide)
	}
	seen16 := false
	for _, p := range wide.Picks {
		if p.Aggregate.SrcPrefixLen == 16 {
			seen16 = true
		}
	}
	if !seen16 {
		t.Fatalf("freeing 11 slots from two /28 clusters needs the /16: %+v", wide.Picks)
	}
}

// overlaps reports whether two aggregate labels cover overlapping flow
// space (same destination, nested source prefixes) — installing both
// would double-spend slots on the same offenders.
func overlaps(a, b flow.Label) bool {
	return a.Dst == b.Dst && (a.Covers(b) || b.Covers(a))
}

// TestChooseOverlapIsAbsorption: picks may nest only in apply order —
// a later, wider pick must list the earlier aggregate among its
// children (the table folds it like any entry, refunding its slot), so
// no slot is ever spent twice on the same offenders.
func TestChooseOverlapIsAbsorption(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 2)
	var entries []filter.Entry
	for i := 1; i <= 14; i++ {
		entries = append(entries, entry(flow.MakeAddr(20, 101, 0, byte(i)), dst, time.Minute))
	}
	for i := 1; i <= 3; i++ {
		entries = append(entries, entry(flow.MakeAddr(20, 101, 7, byte(i)), dst, time.Minute))
	}
	plan := Choose(entries, 100, Config{Policy: Policy{PrefixLens: []uint8{28, 24, 16}}})
	for i, a := range plan.Picks {
		for j, b := range plan.Picks {
			if i == j || !overlaps(a.Aggregate, b.Aggregate) {
				continue
			}
			if j < i {
				continue // checked from the other side
			}
			// Overlap is only legal as later-absorbs-earlier.
			if !b.Aggregate.Covers(a.Aggregate) {
				t.Fatalf("pick %d (%v) overlaps later pick %d (%v) without covering it",
					i, a.Aggregate, j, b.Aggregate)
			}
			absorbed := false
			for _, cl := range b.ChildLabels() {
				if cl == a.Aggregate {
					absorbed = true
				}
			}
			if !absorbed {
				t.Fatalf("wider pick %v does not absorb earlier pick %v as a child",
					b.Aggregate, a.Aggregate)
			}
		}
	}
}

// TestChooseBaselineFallback: with no measured pairs toward a
// destination, candidates are priced by its EWMA baseline scaled by
// covered share — so between two destinations' sibling groups the
// allocator aggregates the quiet destination first.
func TestChooseBaselineFallback(t *testing.T) {
	busy := flow.MakeAddr(10, 0, 0, 2)
	quiet := flow.MakeAddr(10, 0, 0, 3)
	var entries []filter.Entry
	for i := 1; i <= 4; i++ {
		entries = append(entries, entry(flow.MakeAddr(20, 101, 0, byte(i)), busy, time.Minute))
		entries = append(entries, entry(flow.MakeAddr(20, 102, 0, byte(i)), quiet, time.Minute))
	}
	traffic := pairTraffic{base: map[flow.Addr]float64{busy: 1e12, quiet: 1e3}}
	plan := Choose(entries, 3, Config{Policy: Policy{PrefixLens: []uint8{24}}, Traffic: traffic})
	if len(plan.Picks) != 1 || plan.Picks[0].Aggregate.Dst != quiet {
		t.Fatalf("want the quiet destination aggregated first, got %+v", plan.Picks)
	}
	if plan.Picks[0].Measured {
		t.Fatalf("baseline pricing must not claim measurement: %+v", plan.Picks[0])
	}
	if plan.CollateralBytes <= 0 {
		t.Fatalf("baseline pricing produced no collateral estimate: %+v", plan)
	}
}

// TestChooseDeterministic: equal inputs in different orders give the
// same plan — Choose runs inside the deterministic simulator.
func TestChooseDeterministic(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 2)
	var entries []filter.Entry
	for i := 1; i <= 9; i++ {
		entries = append(entries, entry(flow.MakeAddr(20, 101, byte(i%3), byte(i)), dst, time.Minute))
	}
	cfg := Config{Policy: Policy{PrefixLens: []uint8{28, 24}}}
	a := Choose(entries, 4, cfg)
	rev := make([]filter.Entry, len(entries))
	for i, e := range entries {
		rev[len(entries)-1-i] = e
	}
	b := Choose(rev, 4, cfg)
	if len(a.Picks) != len(b.Picks) || a.Freed != b.Freed ||
		a.CollateralBytes != b.CollateralBytes || a.CoveredAddrs != b.CoveredAddrs {
		t.Fatalf("order-dependent plans:\n%+v\n%+v", a, b)
	}
	for i := range a.Picks {
		if a.Picks[i].Aggregate != b.Picks[i].Aggregate {
			t.Fatalf("pick %d differs: %v vs %v", i, a.Picks[i].Aggregate, b.Picks[i].Aggregate)
		}
	}
}

func TestChooseEdgeCases(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 2)
	entries := []filter.Entry{entry(flow.MakeAddr(20, 101, 0, 1), dst, time.Minute)}
	if p := Choose(entries, 0, Config{}); len(p.Picks) != 0 {
		t.Fatalf("need 0 produced picks: %+v", p)
	}
	if p := Choose(nil, 3, Config{}); len(p.Picks) != 0 {
		t.Fatalf("empty table produced picks: %+v", p)
	}
	// A lone entry cannot aggregate: empty plan, caller handles it.
	if p := Choose(entries, 3, Config{}); p.Freed != 0 {
		t.Fatalf("singleton aggregated: %+v", p)
	}
}

// TestChooseCoveredAddrsSaturates: two /2 picks cover 2^31 sources,
// one past the int range where int is 32 bits. The plan's sum clamps
// at math.MaxInt there, as SiblingGroup.CoveredAddrs does, instead of
// wrapping negative and reading as "covers almost nothing".
func TestChooseCoveredAddrsSaturates(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 2)
	entries := []filter.Entry{
		entry(flow.MakeAddr(1, 0, 0, 1), dst, time.Minute),
		entry(flow.MakeAddr(1, 0, 0, 2), dst, time.Minute),
		entry(flow.MakeAddr(65, 0, 0, 1), dst, time.Minute),
		entry(flow.MakeAddr(65, 0, 0, 2), dst, time.Minute),
	}
	plan := Choose(entries, 2, Config{Policy: Policy{PrefixLens: []uint8{2}}})
	if len(plan.Picks) != 2 {
		t.Fatalf("want two /2 picks, got %+v", plan.Picks)
	}
	want := uint64(1) << 31
	if want > uint64(math.MaxInt) {
		want = uint64(math.MaxInt)
	}
	if plan.CoveredAddrs < 0 || uint64(plan.CoveredAddrs) != want {
		t.Fatalf("plan covers %d sources, want %d", plan.CoveredAddrs, want)
	}
}

// TestOneRungChooseIsLargestSiblingGroup is the equivalence that makes
// a fixed /N fallback just a one-rung Policy: with no traffic view
// every candidate at one length prices alike, so over random tables
// Choose(entries, 1, ·) must pick exactly filter.SiblingGroups(entries,
// p)[0] — the same aggregate, the same children in the same order,
// the same deadline — and nothing when there is no group.
func TestOneRungChooseIsLargestSiblingGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dsts := []flow.Addr{flow.MakeAddr(10, 0, 0, 2), flow.MakeAddr(10, 0, 0, 3)}
	const iters = 500
	grouped := 0
	for iter := 0; iter < iters; iter++ {
		var entries []filter.Entry
		for n := rng.Intn(48); len(entries) < n; {
			src := flow.MakeAddr(20, byte(rng.Intn(2)), byte(rng.Intn(4)), byte(rng.Intn(256)))
			dst := dsts[rng.Intn(len(dsts))]
			exp := filter.Time(1+rng.Intn(5)) * time.Second
			var l flow.Label
			switch rng.Intn(6) {
			case 0: // port-distinct exact filter
				l = flow.Exact(src, dst, flow.ProtoUDP, uint16(rng.Intn(3)), 80)
			case 1: // already coarse: never a sibling
				l = flow.SrcPrefixLabel(src.Mask(24), 24, dst)
			default:
				l = flow.PairLabel(src, dst)
			}
			entries = append(entries, filter.Entry{Label: l, ExpiresAt: exp})
		}
		p := uint8(1 + rng.Intn(31))
		groups := filter.SiblingGroups(entries, p)
		plan := Choose(entries, 1, Config{Policy: Policy{PrefixLens: []uint8{p}}})
		if len(groups) == 0 {
			if len(plan.Picks) != 0 {
				t.Fatalf("iter %d (/%d): no sibling group, but Choose picked %+v", iter, p, plan.Picks)
			}
			continue
		}
		grouped++
		if len(plan.Picks) != 1 {
			t.Fatalf("iter %d (/%d): %d picks, want 1", iter, p, len(plan.Picks))
		}
		got, want := plan.Picks[0].SiblingGroup, groups[0]
		if got.Aggregate != want.Aggregate || got.MaxExpiry != want.MaxExpiry || len(got.Children) != len(want.Children) {
			t.Fatalf("iter %d (/%d): picked %v (%d children, until %v), want %v (%d children, until %v)",
				iter, p, got.Aggregate, len(got.Children), got.MaxExpiry,
				want.Aggregate, len(want.Children), want.MaxExpiry)
		}
		for i := range want.Children {
			if got.Children[i] != want.Children[i] {
				t.Fatalf("iter %d (/%d): child %d is %+v, want %+v", iter, p, i, got.Children[i], want.Children[i])
			}
		}
	}
	if grouped < iters/4 {
		t.Fatalf("only %d of %d random tables had a sibling group: the generator tests too little", grouped, iters)
	}
}
