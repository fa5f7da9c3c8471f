package detect

// sketch is a count-min sketch with conservative update. It estimates
// the byte count of every observed key within the current measurement
// window using depth hash rows of width counters each — O(depth·width)
// memory for an unbounded key space, with the classic one-sided
// guarantee: an estimate is never below the true count (collisions only
// inflate).
//
// A cell is one 8-byte counter, and rotate clears every cell at a
// window boundary: 32 KB at the default 1024×4, once a window. The hot
// path stays allocation-free.
type sketch struct {
	mask  uint32 // width-1 (width is a power of two)
	depth int
	seeds []uint64 // one hash seed per row
	// cells holds depth rows of width counters, row-major.
	cells []uint64
}

// newSketch builds a sketch; width, at most MaxWidth, is rounded up to a
// power of two.
func newSketch(width, depth int, seed uint64) *sketch {
	w := sketchWidth(width)
	s := &sketch{mask: w - 1, depth: depth}
	s.seeds = make([]uint64, depth)
	rng := seed
	for i := range s.seeds {
		rng = splitmix64(rng)
		s.seeds[i] = rng
	}
	s.cells = make([]uint64, int(w)*depth)
	return s
}

// sketchWidth rounds width up to the power of two a sketch row holds.
func sketchWidth(width int) uint32 {
	w := uint32(1)
	for int(w) < width {
		w <<= 1
	}
	return w
}

// splitmix64 is the seed/key mixer used throughout the package: cheap,
// deterministic, and well distributed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rotate starts a new window by zeroing every cell. Emptying the
// sketch (Engine.Reset) is the same step.
func (s *sketch) rotate() { clear(s.cells) }

// cellFor returns row i's cell for key.
func (s *sketch) cellFor(i int, key uint64) *uint64 {
	h := splitmix64(key ^ s.seeds[i])
	return &s.cells[i*int(s.mask+1)+int(uint32(h)&s.mask)]
}

// add records n more bytes for key and returns the new window estimate.
// The update is conservative: a row is raised only up to est+n, never
// beyond, which tightens overestimates while preserving the one-sided
// bound (every row still ends at least as high as the key's true
// count, because the minimum row gets the full increment).
//
// aitf:noalloc
func (s *sketch) add(key uint64, n uint64) uint64 {
	est := s.estimate(key) + n
	for i := 0; i < s.depth; i++ {
		if c := s.cellFor(i, key); *c < est {
			*c = est
		}
	}
	return est
}

// estimate returns the key's window byte estimate (≥ the true count).
//
// aitf:noalloc
func (s *sketch) estimate(key uint64) uint64 {
	est := ^uint64(0)
	for i := 0; i < s.depth; i++ {
		if v := *s.cellFor(i, key); v < est {
			est = v
		}
	}
	return est
}
