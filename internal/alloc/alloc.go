// Package alloc chooses which covering prefix filters a gateway should
// install when its wire-speed filter table is full — the §IV
// coarse-filter fallback, and the only aggregation policy the gateways
// run. It scores candidate prefixes (filter.SiblingGroups at every
// policy length) by *estimated collateral legit bytes* — per-pair byte
// estimates and per-destination EWMA baselines from internal/detect,
// with covered-address count as the fallback when nothing is measured —
// and picks, by greedy weighted set-cover, the candidate set that frees
// the required slots at minimum collateral. This is the "Optimal
// Filtering for DDoS Attacks" objective (min legit bytes filtered given
// N slots) applied to AITF's aggregation endgame; re-running Choose
// each detection window gives the adaptive re-allocation of "Adaptive
// Distributed Filtering". A fixed /N fallback is the same objective
// with one candidate length: Policy{PrefixLens: []uint8{N}} with no
// traffic view picks the largest sibling group at /N.
package alloc

import (
	"math"
	"sort"

	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
)

// DefaultPrefixLens are the candidate source prefix lengths tried when
// a Policy does not name its own, deepest (least collateral) first.
var DefaultPrefixLens = []uint8{28, 26, 24, 22, 20, 18, 16}

// Policy is the deployable allocator configuration — the serializable
// subset shared by the simulator gateway, the wire daemon's JSON
// config, and the scenario harness. The zero value means "allocator
// enabled with defaults" wherever a *Policy is non-nil.
type Policy struct {
	// PrefixLens are the candidate source prefix lengths, each tried
	// for every destination under pressure. Empty means
	// DefaultPrefixLens. Values outside [1, 31] are ignored.
	PrefixLens []uint8
	// MinChildren is the minimum sibling count that justifies an
	// aggregate (below 2 is raised to 2, as in filter.SiblingGroups).
	MinChildren int
}

// Lens returns the policy's candidate lengths, normalised: defaults
// applied, degenerate lengths dropped, de-duplicated, deepest first.
func (p Policy) Lens() []uint8 {
	src := p.PrefixLens
	if len(src) == 0 {
		src = DefaultPrefixLens
	}
	seen := [33]bool{}
	out := make([]uint8, 0, len(src))
	for _, l := range src {
		if l < 1 || l > 31 || seen[l] {
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// Traffic is the allocator's view of recent traffic, used to price
// candidates in legitimate bytes rather than covered addresses.
type Traffic interface {
	// Pairs visits the measured heavy source→destination pairs of the
	// current detection window with their byte estimates and whether
	// detection flagged them as attack traffic.
	Pairs(visit func(src, dst flow.Addr, bytes uint64, flagged bool))
	// BaselineBps is the long-run EWMA of traffic toward dst in
	// bytes/second, or 0 when the destination is unknown.
	BaselineBps(dst flow.Addr) float64
}

// Config parameterises one Choose call: the deployable Policy plus the
// live traffic view and scoring knobs.
type Config struct {
	Policy
	// Traffic prices candidates in estimated legit bytes; nil degrades
	// every candidate to the covered-address fallback.
	Traffic Traffic
	// WindowSeconds converts BaselineBps into bytes-per-window for
	// destinations with a baseline but no measured pairs (default
	// 0.25, the detect engine's default window).
	WindowSeconds float64
	// AddrCost is the score charged per covered source address — the
	// universal tie-break that makes deeper prefixes win whenever
	// measurements cannot separate candidates (default 1).
	AddrCost float64
}

func (c Config) windowSeconds() float64 {
	if c.WindowSeconds > 0 {
		return c.WindowSeconds
	}
	return 0.25
}

func (c Config) addrCost() float64 {
	if c.AddrCost > 0 {
		return c.AddrCost
	}
	return 1
}

// Candidate is one scored aggregation option: a sibling group plus its
// estimated collateral price.
type Candidate struct {
	filter.SiblingGroup
	// LegitBytes is the estimated legitimate traffic the aggregate
	// would block, in bytes per detection window: the sum of measured
	// unflagged non-child pair estimates under the prefix, plus a
	// baseline-derived share for destinations with no measured pairs.
	LegitBytes float64
	// Measured reports whether LegitBytes includes any per-pair
	// measurement (false means pure fallback pricing).
	Measured bool
	// Score is the greedy ranking cost: LegitBytes plus
	// AddrCost × CoveredAddrs, so unmeasured candidates still prefer
	// the deepest prefix that does the job.
	Score float64
}

// Assess prices one sibling group against the traffic view. It is the
// single scoring rule Choose ranks with, and the LegitBytes it reports
// is what the gateways account as estimated collateral bytes.
func Assess(g filter.SiblingGroup, cfg Config) Candidate {
	c := Candidate{SiblingGroup: g}
	covered := float64(g.CoveredAddrs())
	c.Score = cfg.addrCost() * covered
	if cfg.Traffic == nil {
		return c
	}
	children := make(map[flow.Addr]bool, len(g.Children))
	for _, ch := range g.Children {
		children[ch.Label.Src] = true
	}
	dst := g.Aggregate.Dst
	dstMeasured := false
	cfg.Traffic.Pairs(func(src, d flow.Addr, bytes uint64, flagged bool) {
		if d != dst {
			return
		}
		dstMeasured = true
		// Children are the offenders being filtered either way; their
		// bytes are not *collateral*. Flagged pairs are attack traffic.
		if flagged || children[src] || !g.Aggregate.CoversSrc(src) {
			return
		}
		c.LegitBytes += float64(bytes)
		c.Measured = true
	})
	if !dstMeasured {
		// No pair measurements toward this destination: charge its
		// legit baseline in proportion to the share of the source
		// space the aggregate blindly covers.
		frac := covered / float64(uint64(1)<<32)
		c.LegitBytes += cfg.Traffic.BaselineBps(dst) * cfg.windowSeconds() * frac
	}
	c.Score += c.LegitBytes
	return c
}

// Plan is the allocator's decision: the aggregates to install and the
// total price of installing them.
type Plan struct {
	// Picks are the chosen aggregates in pick order (cheapest
	// collateral-per-freed-slot first).
	Picks []Candidate
	// Freed is the net table slots the plan releases.
	Freed int
	// CollateralBytes is the summed estimated legit bytes the plan
	// blocks per detection window.
	CollateralBytes float64
	// CoveredAddrs is the summed source addresses the plan covers,
	// clamped to math.MaxInt like filter.SiblingGroup.CoveredAddrs, so
	// a plan of wide prefixes cannot wrap where int is 32 bits.
	CoveredAddrs int
}

// Choose picks the aggregate set freeing at least need slots at
// minimum estimated collateral, by greedy weighted set-cover over
// candidates generated at every configured prefix length: repeatedly
// take the candidate with the lowest Score per freed slot, drop the
// children it consumed (and any candidate overlapping it) from the
// rest, and re-price. A plan with Freed < need means the entries do
// not admit enough aggregation; the caller installs what it got and
// lives with the remaining pressure.
func Choose(entries []filter.Entry, need int, cfg Config) Plan {
	var plan Plan
	if need <= 0 || len(entries) == 0 {
		return plan
	}
	var cands []Candidate
	for _, bits := range cfg.Lens() {
		for _, g := range filter.SiblingGroups(entries, bits, cfg.MinChildren) {
			cands = append(cands, Assess(g, cfg))
		}
	}
	for plan.Freed < need && len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if candLess(cands[i], cands[best]) {
				best = i
			}
		}
		pick := cands[best]
		plan.Picks = append(plan.Picks, pick)
		plan.Freed += pick.Freed()
		plan.CollateralBytes += pick.LegitBytes
		plan.CoveredAddrs = satAdd(plan.CoveredAddrs, pick.CoveredAddrs())
		if plan.Freed >= need {
			break
		}
		consumed := make(map[flow.Label]bool, len(pick.Children))
		for _, ch := range pick.Children {
			consumed[ch.Label.Key()] = true
		}
		next := cands[:0]
		for _, c := range cands {
			// A candidate nested inside the pick has nothing left to
			// cover. A candidate *containing* the pick stays viable:
			// the installed aggregate becomes one of its children (the
			// table folds nested aggregates like any other entry), so
			// widening remains possible when deep picks cannot free
			// enough on their own.
			if pick.Aggregate.Covers(c.Aggregate) {
				continue
			}
			kept := c.Children[:0:0]
			for _, ch := range c.Children {
				if !consumed[ch.Label.Key()] {
					kept = append(kept, ch)
				}
			}
			if c.Aggregate.Covers(pick.Aggregate) {
				kept = append(kept, filter.Entry{Label: pick.Aggregate, ExpiresAt: pick.MaxExpiry})
			}
			min := cfg.MinChildren
			if min < 2 {
				min = 2
			}
			if len(kept) < min {
				continue
			}
			if len(kept) != len(c.Children) {
				g := filter.SiblingGroup{Aggregate: c.Aggregate, Children: kept}
				for _, ch := range kept {
					if ch.ExpiresAt > g.MaxExpiry {
						g.MaxExpiry = ch.ExpiresAt
					}
				}
				c = Assess(g, cfg)
			}
			next = append(next, c)
		}
		cands = next
	}
	return plan
}

// satAdd adds two non-negative counts, saturating at math.MaxInt.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// candLess ranks candidates for the greedy pick: lowest collateral per
// freed slot first, then most slots freed, then the deepest prefix,
// then label order — a strict total order so Choose is deterministic.
func candLess(a, b Candidate) bool {
	// Score/Freed comparison without division: cross-multiply.
	af, bf := float64(a.Freed()), float64(b.Freed())
	if l, r := a.Score*bf, b.Score*af; l != r {
		return l < r
	}
	if a.Freed() != b.Freed() {
		return a.Freed() > b.Freed()
	}
	if a.Aggregate.SrcPrefixLen != b.Aggregate.SrcPrefixLen {
		return a.Aggregate.SrcPrefixLen > b.Aggregate.SrcPrefixLen
	}
	return filter.LabelLess(a.Aggregate, b.Aggregate)
}

// DetectTraffic adapts a detect.Engine into the allocator's Traffic
// view: heavy-hitter pair estimates plus per-destination baselines.
type DetectTraffic struct {
	Eng *detect.Engine
}

// Pairs visits the engine's current heavy-hitter snapshot.
func (t DetectTraffic) Pairs(visit func(src, dst flow.Addr, bytes uint64, flagged bool)) {
	for _, h := range t.Eng.TopK() {
		visit(h.Src, h.Dst, h.Bytes, h.Flagged)
	}
}

// BaselineBps returns the destination's EWMA bandwidth.
func (t DetectTraffic) BaselineBps(dst flow.Addr) float64 {
	return t.Eng.Baseline(dst)
}
