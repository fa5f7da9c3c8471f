package pushback

import "aitf/internal/flow"

// Limited reports whether the router currently rate-limits traffic
// toward dst.
func (r *Router) Limited(dst flow.Addr) bool {
	a, ok := r.aggs[dst]
	return ok && a.limited && a.limitUntil > r.node.Engine().Now()
}

// Depth returns the recursion depth of the router's limit toward dst
// (0 = installed on local detection), or -1 if it never installed one.
// A limit is installed at most once per aggregate.
func (r *Router) Depth(dst flow.Addr) int {
	if a, ok := r.aggs[dst]; ok && a.limited {
		return a.depth
	}
	return -1
}
