package detect

import (
	"aitf/internal/flow"
	"aitf/internal/sim"
)

// Estimate returns the (src, dst) pair's current window byte estimate.
// The estimate is one-sided: it is never below the pair's true byte
// count within the window.
func (e *Engine) Estimate(now sim.Time, src, dst flow.Addr) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rotate(now)
	return e.cms.estimate(pairKey(src, dst))
}
