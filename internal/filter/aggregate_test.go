package filter

import (
	"math"
	"testing"
	"time"

	"aitf/internal/flow"
)

func aggChild(i int, dst flow.Addr) flow.Label {
	return flow.PairLabel(flow.MakeAddr(240, 1, 2, byte(i)), dst)
}

func TestSiblingGroups(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 9)
	other := flow.MakeAddr(10, 0, 0, 8)
	var entries []Entry
	for i := 0; i < 5; i++ { // five siblings in 240.1.2/24 toward dst
		entries = append(entries, Entry{Label: aggChild(i, dst), ExpiresAt: Time(i+1) * time.Second})
	}
	for i := 0; i < 3; i++ { // three siblings in 240.9.9/24 toward dst
		entries = append(entries, Entry{
			Label:     flow.PairLabel(flow.MakeAddr(240, 9, 9, byte(i)), dst),
			ExpiresAt: time.Minute,
		})
	}
	entries = append(entries,
		Entry{Label: aggChild(77, other), ExpiresAt: time.Second},               // lone: different dst
		Entry{Label: fromSource(dst), ExpiresAt: time.Second},                   // wildcard: ineligible
		Entry{Label: flow.SrcPrefixLabel(flow.MakeAddr(240, 1, 2, 0), 24, dst)}, // already coarse
	)

	groups := SiblingGroups(entries, 24)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(groups), groups)
	}
	g := groups[0] // largest first
	if len(g.Children) != 5 || g.Freed() != 4 {
		t.Fatalf("biggest group has %d children (freed %d)", len(g.Children), g.Freed())
	}
	want := flow.SrcPrefixLabel(flow.MakeAddr(240, 1, 2, 0), 24, dst)
	if g.Aggregate != want {
		t.Fatalf("aggregate label %v, want %v", g.Aggregate, want)
	}
	if g.MaxExpiry != 5*time.Second {
		t.Fatalf("MaxExpiry %v", g.MaxExpiry)
	}
	if g.CoveredAddrs() != 256 {
		t.Fatalf("CoveredAddrs %d", g.CoveredAddrs())
	}
	for _, c := range g.Children {
		if !g.Aggregate.Covers(c.Label) {
			t.Fatalf("aggregate %v does not cover child %v", g.Aggregate, c.Label)
		}
	}
	// With a degenerate prefix length: nothing.
	for _, bad := range []uint8{0, 32, 200} {
		if got := SiblingGroups(entries, bad); got != nil {
			t.Fatalf("prefixLen %d accepted", bad)
		}
	}
	// Singleton groups never form.
	lone := []Entry{{Label: aggChild(0, dst), ExpiresAt: time.Second}}
	if got := SiblingGroups(lone, 24); len(got) != 0 {
		t.Fatalf("singleton aggregated: %+v", got)
	}
}

// TestCoveredAddrsDegenerate pins CoveredAddrs' unit (a count of IPv4
// source addresses) across the label shapes an aggregate can take:
// genuine prefixes, host labels (SrcPrefixLen 0 or ≥ 32), and
// wildcard sources. The degenerate shapes must clamp instead of
// shifting past the int word size, which used to wrap on 32-bit
// platforms.
func TestCoveredAddrsDegenerate(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 9)
	src := flow.MakeAddr(240, 1, 2, 0)
	mk := func(l flow.Label) SiblingGroup { return SiblingGroup{Aggregate: l} }

	if got := mk(flow.SrcPrefixLabel(src, 24, dst)).CoveredAddrs(); got != 256 {
		t.Fatalf("/24 covers %d, want 256", got)
	}
	if got := mk(flow.SrcPrefixLabel(src, 16, dst)).CoveredAddrs(); got != 65536 {
		t.Fatalf("/16 covers %d, want 65536", got)
	}
	// Monotone: deeper prefixes always cover fewer addresses, except
	// that where int is 32 bits /1 sits at the same MaxInt clamp as the
	// wildcard bound it is compared against.
	prev := math.MaxInt
	for bits := uint8(1); bits <= 31; bits++ {
		got := mk(flow.SrcPrefixLabel(src, bits, dst)).CoveredAddrs()
		if got <= 0 || got > prev || (got == prev && got != math.MaxInt) {
			t.Fatalf("/%d covers %d (prev %d): not positive-monotone", bits, got, prev)
		}
		prev = got
	}
	// A host label (prefix length 0 means "no prefix", i.e. exact
	// source) covers exactly one address.
	if got := mk(flow.PairLabel(src, dst)).CoveredAddrs(); got != 1 {
		t.Fatalf("host label covers %d, want 1", got)
	}
	// A wildcard source covers the whole space, clamped to what int
	// holds on this platform.
	wild := mk(flow.ToDestination(dst)) // *->dst
	got := wild.CoveredAddrs()
	if got <= 0 {
		t.Fatalf("wildcard coverage wrapped to %d", got)
	}
	if uint64(got) != uint64(1)<<32 && got != math.MaxInt {
		t.Fatalf("wildcard covers %d, want 2^32 (or MaxInt clamp)", got)
	}
}

// TestLabelLessTotalOrder checks the allocation-free comparator used by
// the table-pressure sorts is a strict total order (never both ways,
// equal labels unordered) and allocates nothing per comparison.
func TestLabelLessTotalOrder(t *testing.T) {
	dst := flow.MakeAddr(10, 0, 0, 9)
	labels := []flow.Label{
		flow.PairLabel(flow.MakeAddr(240, 1, 2, 3), dst),
		flow.PairLabel(flow.MakeAddr(240, 1, 2, 4), dst),
		flow.PairLabel(flow.MakeAddr(240, 1, 2, 3), flow.MakeAddr(10, 0, 0, 8)),
		flow.SrcPrefixLabel(flow.MakeAddr(240, 1, 2, 0), 24, dst),
		flow.SrcPrefixLabel(flow.MakeAddr(240, 1, 2, 0), 28, dst),
		fromSource(dst),
		flow.Exact(flow.MakeAddr(240, 1, 2, 3), dst, flow.ProtoUDP, 5000, 80),
		flow.Exact(flow.MakeAddr(240, 1, 2, 3), dst, flow.ProtoTCP, 5000, 80),
	}
	for i, a := range labels {
		for j, b := range labels {
			lt, gt := LabelLess(a, b), LabelLess(b, a)
			if lt && gt {
				t.Fatalf("labels %d,%d ordered both ways", i, j)
			}
			if i == j && (lt || gt) {
				t.Fatalf("label %d ordered against itself", i)
			}
			if i != j && a != b && !lt && !gt {
				t.Fatalf("distinct labels %d,%d unordered", i, j)
			}
		}
	}
	a, b := labels[0], labels[3]
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = LabelLess(a, b)
		_ = LabelLess(b, a)
	}); allocs != 0 {
		t.Fatalf("LabelLess allocates %v per run, want 0", allocs)
	}
}

// BenchmarkSiblingGroups guards the table-pressure grouping path: it
// runs exactly when the gateway is out of wire-speed filters, so its
// cost (and especially its per-comparison allocations, formerly a
// String() call per sort step) is on the attack-response latency path.
func BenchmarkSiblingGroups(b *testing.B) {
	dst := flow.MakeAddr(10, 0, 0, 9)
	var entries []Entry
	for i := 0; i < 256; i++ {
		entries = append(entries, Entry{
			// Same deadline everywhere: every comparison falls through
			// to the label tie-break.
			Label:     flow.PairLabel(flow.MakeAddr(240, 1, byte(i/32), byte(i%32)), dst),
			ExpiresAt: time.Second,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := SiblingGroups(entries, 24); len(got) == 0 {
			b.Fatal("no groups")
		}
	}
}

// fromSource matches all traffic from src regardless of destination.
func fromSource(src flow.Addr) flow.Label {
	return flow.Label{Src: src, Wildcards: flow.WildDst | flow.WildProto | flow.WildSrcPort | flow.WildDstPort}
}
