package detect

// sketch is a count-min sketch with conservative update. It estimates
// the byte count of every observed key within the current measurement
// window using depth hash rows of width counters each — O(depth·width)
// memory for an unbounded key space, with the classic one-sided
// guarantee: an estimate is never below the true count (collisions only
// inflate).
//
// A cell is one 8-byte counter. The depth rows of width cells, laid out
// row-major, are cut into pages of eight cells, and a page is held only
// once a nonzero count is written into it: a directory entry per page
// names its place in the slab of held pages, and a page without one
// reads as zero. So the cells cost memory in proportion to the cells
// the engine's keys touch, up to the dense depth×width (32 KB at the
// default 1024×4), plus the directory's 4 bytes per page. rotate clears
// the held pages at a window boundary and keeps them for the next
// window. The hot path allocates only when a key first writes into a
// page no key wrote into before.
type sketch struct {
	mask  uint32 // width-1 (width is a power of two)
	depth int
	seeds []uint64 // one hash seed per row
	// dir holds, for each page of the cell grid, its 1-based position in
	// slab, or 0 while the page reads as zero.
	dir []uint32
	// slab holds the written pages in first-write order, and owner the
	// directory index of each, so that merges walk only held pages.
	slab  []page
	owner []uint32
}

// pageCells is the number of cells one directory entry stands for.
const pageCells = 8

// page is one held run of pageCells consecutive cells.
type page [pageCells]uint64

// newSketch builds a sketch; width, at most MaxWidth, is rounded up to a
// power of two. Only the directory is allocated up front.
func newSketch(width, depth int, seed uint64) *sketch {
	w := sketchWidth(width)
	s := &sketch{mask: w - 1, depth: depth}
	s.seeds = make([]uint64, depth)
	rng := seed
	for i := range s.seeds {
		rng = splitmix64(rng)
		s.seeds[i] = rng
	}
	s.dir = make([]uint32, sketchPages(w, depth))
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

// sketchPages is the number of pages that cover depth rows of w cells.
func sketchPages(w uint32, depth int) int {
	return (int(w)*depth + pageCells - 1) / pageCells
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

// rotate starts a new window by zeroing every held page. Emptying the
// sketch (Engine.Reset) is the same step.
func (s *sketch) rotate() { clear(s.slab) }

// index returns the grid position of row i's cell for key.
func (s *sketch) index(i int, key uint64) uint32 {
	h := splitmix64(key ^ s.seeds[i])
	return uint32(i)*(s.mask+1) + uint32(h)&s.mask
}

// read returns the count at grid position at.
func (s *sketch) read(at uint32) uint64 {
	if p := s.dir[at/pageCells]; p != 0 {
		return s.slab[p-1][at%pageCells]
	}
	return 0
}

// add records n more bytes for key and returns the new window estimate.
// The update is conservative: a row is raised only up to est+n, never
// beyond, which tightens overestimates while preserving the one-sided
// bound (every row still ends at least as high as the key's true
// count, because the minimum row gets the full increment). Each row is
// hashed once, for the read and the raise both.
//
// aitf:noalloc
func (s *sketch) add(key uint64, n uint64) uint64 {
	var at, held [MaxDepth]uint32 // each row's grid position and slab page
	est := ^uint64(0)
	for i := 0; i < s.depth; i++ {
		at[i] = s.index(i, key)
		held[i] = s.dir[at[i]/pageCells]
		v := uint64(0)
		if held[i] != 0 {
			v = s.slab[held[i]-1][at[i]%pageCells]
		}
		est = min(est, v)
	}
	est += n
	if est == 0 {
		return 0 // nothing to raise: every row already reads 0
	}
	for i := 0; i < s.depth; i++ {
		p := held[i]
		if p == 0 {
			// Rows narrower than a page share pages: an earlier row
			// may have just taken this one.
			if p = s.dir[at[i]/pageCells]; p == 0 {
				p = s.hold(at[i] / pageCells)
			}
		}
		if c := &s.slab[p-1][at[i]%pageCells]; *c < est {
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
		if v := s.read(s.index(i, key)); v < est {
			est = v
		}
	}
	return est
}

// hold gives directory page pg a zeroed slab page and returns its
// 1-based position. The slab doubles when full, but never past one
// page per directory entry: the dense grid is its bound.
func (s *sketch) hold(pg uint32) uint32 {
	if len(s.slab) == cap(s.slab) {
		n := min(max(2*cap(s.slab), 1), len(s.dir))
		slab := make([]page, len(s.slab), n)
		copy(slab, s.slab)
		owner := make([]uint32, len(s.owner), n)
		copy(owner, s.owner)
		s.slab, s.owner = slab, owner
	}
	s.slab = append(s.slab, page{})
	s.owner = append(s.owner, pg)
	p := uint32(len(s.slab))
	s.dir[pg] = p
	return p
}

// merge adds o's cells into s, cell by cell. Both sketches must share
// geometry and seeds; only o's held, nonzero pages are walked.
func (s *sketch) merge(o *sketch) {
	for j := range o.slab {
		src := &o.slab[j]
		if *src == (page{}) {
			continue
		}
		pg := o.owner[j]
		p := s.dir[pg]
		if p == 0 {
			p = s.hold(pg)
		}
		dst := &s.slab[p-1]
		for c := range dst {
			dst[c] += src[c]
		}
	}
}

// live counts the cells holding a count this window.
func (s *sketch) live() int {
	n := 0
	for j := range s.slab {
		for _, v := range s.slab[j] {
			if v != 0 {
				n++
			}
		}
	}
	return n
}
