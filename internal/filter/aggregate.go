// Aggregation policy: when a victim's gateway runs out of wire-speed
// filters — the filter-table pressure endgame of AITF §II/§IV, reached
// when thousands of (often spoofed) sibling sources each cost one pair
// filter — the gateway falls back to coarser labels, coalescing sibling
// filters into one covering source-prefix filter. This file holds the
// pure grouping policy; dataplane.Engine.Aggregate performs the
// budget-conserving replacement, and alloc.Aggregator, the one
// lifecycle both runtimes run, decides when pressure warrants it and
// when relief warrants splitting back.
package filter

import (
	"math"
	"sort"

	"aitf/internal/flow"
)

// SiblingGroup is a set of installed filters that share a destination
// and a source /N, together with the prefix label that covers them all.
type SiblingGroup struct {
	// Aggregate is the covering label: src/N -> dst, any proto/ports.
	Aggregate flow.Label
	// Children are the member filters, in expiry order.
	Children []Entry
	// MaxExpiry is the latest child deadline; an aggregate installed
	// until then costs no child any coverage time.
	MaxExpiry Time
}

// Freed is the net table slots released by installing the group's
// aggregate in place of its children.
func (g SiblingGroup) Freed() int { return len(g.Children) - 1 }

// CoveredAddrs is how many IPv4 source addresses the aggregate
// matches — the denominator of collateral-damage accounting: the
// aggregate blocks CoveredAddrs sources to stop len(Children)
// offenders. The unit is a count of addresses, not bytes. Degenerate
// prefix lengths (0, meaning a host or wildcard label rather than a
// prefix, or ≥ 32) cover the whole space or a single host; the count
// clamps to math.MaxInt where 2^32 does not fit in int, instead of
// shifting past the word size and wrapping on 32-bit platforms.
func (g SiblingGroup) CoveredAddrs() int {
	bits := uint(g.Aggregate.SrcPrefixLen)
	switch {
	case g.Aggregate.Wildcards&flow.WildSrc != 0:
		bits = 0 // wildcard source: the whole address space
	case bits == 0 || bits >= 32:
		return 1 // host label: exactly one source address
	}
	n := uint64(1) << (32 - bits)
	if n > uint64(math.MaxInt) {
		return math.MaxInt
	}
	return int(n)
}

// ChildLabels returns the member labels, for handing to Aggregate.
func (g SiblingGroup) ChildLabels() []flow.Label {
	out := make([]flow.Label, len(g.Children))
	for i, e := range g.Children {
		out[i] = e.Label
	}
	return out
}

// SiblingGroups scans installed filters and groups the aggregatable
// ones — labels with concrete host source and destination addresses
// (exact, pair, or port/proto wildcards) — by (dst, src/prefixLen).
// Groups of one are dropped, since replacing one filter with a broader
// one frees nothing and only adds collateral; the rest are returned
// most-members-first (ties broken by label order) so the caller can
// coalesce the group that frees the most slots first. prefixLen must be
// in [1, 31].
func SiblingGroups(entries []Entry, prefixLen uint8) []SiblingGroup {
	if prefixLen < 1 || prefixLen > 31 {
		return nil
	}
	type gkey struct {
		src flow.Addr
		dst flow.Addr
	}
	groups := map[gkey][]Entry{}
	for _, e := range entries {
		l := e.Label
		if l.Wildcards&(flow.WildSrc|flow.WildDst) != 0 ||
			l.SrcPrefixLen != 0 || l.DstPrefixLen != 0 {
			continue // already coarse, or not anchored to a host pair
		}
		k := gkey{src: l.Src.Mask(prefixLen), dst: l.Dst}
		groups[k] = append(groups[k], e)
	}
	out := make([]SiblingGroup, 0, len(groups))
	for k, members := range groups {
		if len(members) < 2 {
			continue
		}
		sort.Slice(members, func(i, j int) bool {
			if members[i].ExpiresAt != members[j].ExpiresAt {
				return members[i].ExpiresAt < members[j].ExpiresAt
			}
			return LabelLess(members[i].Label, members[j].Label)
		})
		g := SiblingGroup{
			Aggregate: flow.SrcPrefixLabel(k.src, prefixLen, k.dst),
			Children:  members,
			MaxExpiry: members[len(members)-1].ExpiresAt,
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Children) != len(out[j].Children) {
			return len(out[i].Children) > len(out[j].Children)
		}
		return LabelLess(out[i].Aggregate, out[j].Aggregate)
	})
	return out
}

// LabelLess is a total order over labels for deterministic tie-breaks.
// The SiblingGroups sorts and alloc's candidate ranking run exactly
// when the gateway is out of wire-speed filters, so the comparison must
// not format strings (or allocate at all) per call the way
// Label.String() ordering did.
func LabelLess(a, b flow.Label) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.SrcPrefixLen != b.SrcPrefixLen {
		return a.SrcPrefixLen < b.SrcPrefixLen
	}
	if a.DstPrefixLen != b.DstPrefixLen {
		return a.DstPrefixLen < b.DstPrefixLen
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Wildcards < b.Wildcards
}
