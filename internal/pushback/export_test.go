package pushback

import "aitf/internal/flow"

// Limited reports whether the router currently rate-limits traffic
// toward dst.
func (r *Router) Limited(dst flow.Addr) bool {
	a, ok := r.aggs[dst]
	return ok && a.limited && a.limitUntil > r.node.Engine().Now()
}
