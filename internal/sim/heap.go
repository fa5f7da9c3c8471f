package sim

import "math/bits"

// eventHeap is a monotone radix heap of events ordered by the 128-bit
// key (at, seq): fire time in the high word, scheduling order in the
// low one. (at, seq) is a strict total order — seq is unique per
// engine — so the pop order is the same for any correct queue,
// whatever its layout.
//
// Monotone means every pushed key is at or above base, the key of the
// last event pop returned. The engine keeps that contract: Schedule and
// Post take a fresh seq at a time no earlier than now, and PostReserved
// refuses a key below the last fired one (see Engine).
//
// Bucket b holds the keys whose highest bit differing from base is bit
// b-1; bucket 0 holds a key equal to base. A bitmap marks the
// non-empty buckets, so finding the minimum scans only the lowest
// non-empty bucket, and a key only ever moves to a lower bucket: pop
// makes the minimum the new base and redistributes the rest of its
// bucket below it (they agree with the minimum above bit b-1), while
// every higher bucket keeps its index. Each key moves at most 128 times
// over its life, and in practice a few, so push and pop cost O(1)
// amortised against the log N sift of a comparison heap.
//
// peek never moves base: RunUntil peeks at an event past its deadline,
// and the caller may then schedule below it at now. pop, which fires,
// does; discard, which drops a cancelled event, does not, so base is
// always the last fired key.
//
// Buckets grow to their high-water marks and are reused; push and pop
// allocate nothing at steady state.
type eventHeap struct {
	baseAt  Time
	baseSeq uint64
	n       int
	// nonEmpty has bit b set while buckets[b] holds an entry.
	nonEmpty [3]uint64
	buckets  [heapBuckets][]heapEntry
	// minB, minI locate the minimum findMin found, and minEv is its
	// event; valid while minOK, until the next push, pop or discard.
	minB, minI int
	minEv      *Event
	minOK      bool
}

// heapBuckets is one bucket per bit of the 128-bit key, plus one for a
// key equal to base.
const heapBuckets = 129

// heapEntry is one queued event with the (at, seq) it was pushed under,
// so a compare reads the bucket's own array and never follows the
// *Event.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before is the queue order: earliest fire time first, ties broken by
// scheduling order so a run is fully reproducible.
func (a *heapEntry) before(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return h.n }

// below reports whether (at, seq) is under base, which push forbids.
func (h *eventHeap) below(at Time, seq uint64) bool {
	return at < h.baseAt || at == h.baseAt && seq < h.baseSeq
}

// bucketOf is one plus the index of the highest bit in which (at, seq)
// differs from base; 0 when it equals base.
func (h *eventHeap) bucketOf(at Time, seq uint64) int {
	if x := uint64(at ^ h.baseAt); x != 0 {
		return 64 + bits.Len64(x)
	}
	return bits.Len64(seq ^ h.baseSeq)
}

// push queues e under its current (at, seq), which must not be below
// base; the caller must not change either while e is queued.
//
// aitf:noalloc
func (h *eventHeap) push(e *Event) {
	b := h.bucketOf(e.at, e.seq)
	bk := &h.buckets[b]
	n := len(*bk)
	if n == cap(*bk) {
		h.grow(b)
	}
	*bk = (*bk)[:n+1]
	(*bk)[n] = heapEntry{at: e.at, seq: e.seq, ev: e}
	h.nonEmpty[b>>6] |= 1 << (b & 63)
	h.n++
	h.minOK = false
}

// grow stays out of line: push and pop are under the allocation gate,
// and this is their one allocation, paid until the bucket reaches its
// working size.
//
//go:noinline
func (h *eventHeap) grow(b int) {
	old := h.buckets[b]
	bk := make([]heapEntry, len(old), max(8, 2*cap(old)))
	copy(bk, old)
	h.buckets[b] = bk
}

// findMin finds the minimum, the earliest entry of the lowest non-empty
// bucket, and caches it for peek, pop and discard until the next push,
// pop or discard. Caller checks len.
//
// aitf:noalloc
func (h *eventHeap) findMin() {
	var b int
	switch {
	case h.nonEmpty[0] != 0:
		b = bits.TrailingZeros64(h.nonEmpty[0])
	case h.nonEmpty[1] != 0:
		b = 64 + bits.TrailingZeros64(h.nonEmpty[1])
	default:
		b = 128 + bits.TrailingZeros64(h.nonEmpty[2])
	}
	bk := h.buckets[b]
	i := 0
	for j := 1; j < len(bk); j++ {
		if bk[j].before(&bk[i]) {
			i = j
		}
	}
	h.minB, h.minI, h.minEv, h.minOK = b, i, bk[i].ev, true
}

// peek returns the next event without removing it or moving base.
// Caller checks len.
func (h *eventHeap) peek() *Event {
	if !h.minOK {
		h.findMin()
	}
	return h.minEv
}

// pop removes and returns the earliest event, making its key the new
// base. Caller checks len.
//
// aitf:noalloc
func (h *eventHeap) pop() *Event {
	if !h.minOK {
		h.findMin()
	}
	b, bk := h.minB, h.buckets[h.minB]
	m := bk[h.minI]
	h.baseAt, h.baseSeq = m.at, m.seq
	last := len(bk) - 1
	bk[h.minI] = bk[last]
	// Slots are zeroed as they empty, so fired events can be GC'd.
	bk[last] = heapEntry{}
	// push's append, written out: a call per moved entry costs pop a
	// tenth.
	for k := range bk[:last] {
		ent := bk[k]
		bk[k] = heapEntry{}
		nb := h.bucketOf(ent.at, ent.seq) // always below b
		dst := &h.buckets[nb]
		n := len(*dst)
		if n == cap(*dst) {
			h.grow(nb)
		}
		*dst = (*dst)[:n+1]
		(*dst)[n] = ent
		h.nonEmpty[nb>>6] |= 1 << (nb & 63)
	}
	h.buckets[b] = bk[:0]
	h.nonEmpty[b>>6] &^= 1 << (b & 63)
	h.n--
	h.minOK = false
	return m.ev
}

// discard removes the earliest event without moving base. Caller checks
// len.
//
// aitf:noalloc
func (h *eventHeap) discard() {
	if !h.minOK {
		h.findMin()
	}
	b, i := h.minB, h.minI
	bk := h.buckets[b]
	last := len(bk) - 1
	bk[i] = bk[last]
	bk[last] = heapEntry{}
	h.buckets[b] = bk[:last]
	if last == 0 {
		h.nonEmpty[b>>6] &^= 1 << (b & 63)
	}
	h.n--
	h.minOK = false
}
