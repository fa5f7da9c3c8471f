package detect

import "aitf/internal/flow"

// baselines tracks an exponentially weighted moving average of the
// aggregate bytes/second arriving at each destination, over the same
// windows the sketch rotates on. The table is a fixed-capacity
// open-addressed map: when full, a newcomer displaces the coldest
// entry in its probe neighbourhood, so a destination churn attack can
// degrade baseline quality but never grow memory.
type baselines struct {
	keys  []flow.Addr
	used  []bool
	win   []float64 // bytes accumulated in the current window
	ewma  []float64 // smoothed bytes/second
	mask  uint32
	seed  uint64
	alpha float64
	count int
}

func newBaselines(capacity int, alpha float64, seed uint64) *baselines {
	w := uint32(8)
	for int(w) < capacity {
		w <<= 1
	}
	return &baselines{
		keys:  make([]flow.Addr, w),
		used:  make([]bool, w),
		win:   make([]float64, w),
		ewma:  make([]float64, w),
		mask:  w - 1,
		seed:  splitmix64(seed ^ 0x5bd1e9955bd1e995),
		alpha: alpha,
	}
}

// reset forgets every destination, keeping the table's arrays. Like
// bps and rotate, it takes a nil table, which an engine has until its
// first observation, as an empty one.
func (b *baselines) reset() {
	if b == nil {
		return
	}
	clear(b.keys)
	clear(b.used)
	clear(b.win)
	clear(b.ewma)
	b.count = 0
}

// slot finds dst's slot, or an insertion slot (preferring a free one,
// falling back to the probe window's coldest victim).
func (b *baselines) slot(dst flow.Addr, insert bool) int32 {
	const probes = 8
	home := uint32(splitmix64(uint64(dst)^b.seed)) & b.mask
	coldest, coldVal := int32(-1), 0.0
	for i := uint32(0); i < probes; i++ {
		s := (home + i) & b.mask
		if !b.used[s] {
			if insert {
				return int32(s)
			}
			return -1
		}
		if b.keys[s] == dst {
			return int32(s)
		}
		if heat := b.ewma[s] + b.win[s]; coldest < 0 || heat < coldVal {
			coldest, coldVal = int32(s), heat
		}
	}
	if insert {
		return coldest
	}
	return -1
}

// add accumulates window bytes toward dst.
func (b *baselines) add(dst flow.Addr, n int) {
	s := b.slot(dst, true)
	if !b.used[s] || b.keys[s] != dst {
		if !b.used[s] {
			b.count++
		}
		b.used[s] = true
		b.keys[s] = dst
		b.win[s] = 0
		b.ewma[s] = 0
	}
	b.win[s] += float64(n)
}

// bps returns the smoothed bytes/second baseline for dst (0 when
// untracked).
func (b *baselines) bps(dst flow.Addr) float64 {
	if b == nil {
		return 0
	}
	if s := b.slot(dst, false); s >= 0 && b.keys[s] == dst {
		return b.ewma[s]
	}
	return 0
}

// rotate folds the finished window into every EWMA. elapsed ≥ 1 is how
// many window lengths passed since the last rotation: the first
// carries the accumulated bytes, the remainder are silent windows that
// decay the average geometrically.
func (b *baselines) rotate(elapsed int, windowSeconds float64) {
	if b == nil || windowSeconds <= 0 {
		return
	}
	decay := 1.0
	for i := 1; i < elapsed && decay > 1e-12; i++ {
		decay *= 1 - b.alpha
	}
	for s := range b.keys {
		if !b.used[s] {
			continue
		}
		rate := b.win[s] / windowSeconds
		b.ewma[s] = (b.alpha*rate + (1-b.alpha)*b.ewma[s]) * decay
		b.win[s] = 0
	}
}
