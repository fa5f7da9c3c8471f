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
// makes the minimum the new base and relinks the rest of its bucket
// below it (they agree with the minimum above bit b-1), while every
// higher bucket keeps its index. Each key moves at most 128 times over
// its life, and in practice a few, so push and pop cost O(1) amortised
// against the log N sift of a comparison heap.
//
// peek never moves base: RunUntil peeks at an event past its deadline,
// and the caller may then schedule below it at now. pop, which fires,
// does; discard, which drops a cancelled event, does not, so base is
// always the last fired key.
//
// Every event lives in one slot of one slab, and each bucket is a
// singly linked list through it. A slot leaves its list only to be
// freed, and pop and discard clear it as they free it, so no fired
// callback stays reachable. Freed slots form a LIFO free list that
// push takes from first, so the slab holds the most events ever
// pending at once, and push and pop allocate nothing once it has
// reached that length. Slot 0 is never used: a zero link ends a list.
type eventHeap struct {
	baseAt  Time
	baseSeq uint64
	n       int
	// nonEmpty has bit b set while head[b] is not 0.
	nonEmpty [3]uint64
	// minB, minI locate the minimum findMin found, and minPrev is the
	// slot linking to it, 0 at the head of its list; valid while minOK,
	// until the next push, pop or discard.
	minB          int
	minI, minPrev int32
	minOK         bool
	free          int32 // first free slot, 0 when there is none
	head          [heapBuckets]int32
	slab          []slot
}

// heapBuckets is one bucket per bit of the 128-bit key, plus one for a
// key equal to base.
const heapBuckets = 129

// slot is one queued event: its key, its callback, the handle Schedule
// gave out for it (nil for Post), and the next slot in its bucket or
// on the free list. A step reads the slab alone, apart from a handle's
// cancelled flag.
type slot struct {
	at     Time
	seq    uint64
	fn     func()
	handle *Event
	next   int32
}

// before is the queue order: earliest fire time first, ties broken by
// scheduling order so a run is fully reproducible.
func (a *slot) before(b *slot) bool {
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

// link puts slot i at the head of bucket b.
func (h *eventHeap) link(i int32, b int) {
	h.slab[i].next = h.head[b]
	h.head[b] = i
	h.nonEmpty[b>>6] |= 1 << (b & 63)
}

// push queues fn under (at, seq), which must not be below base, with
// the handle to check for a cancel (nil if it has none).
//
// aitf:noalloc
func (h *eventHeap) push(at Time, seq uint64, fn func(), handle *Event) {
	if h.free == 0 {
		h.grow()
	}
	i := h.free
	s := &h.slab[i]
	h.free = s.next
	s.at, s.seq, s.fn, s.handle = at, seq, fn, handle
	h.link(i, h.bucketOf(at, seq))
	h.n++
	h.minOK = false
}

// grow adds one slot to the slab and the free list, and slot 0 first.
// It stays out of line: push is under the allocation gate, and the
// slab's append is its one allocation, paid until the queue reaches
// its most pending events.
//
//go:noinline
func (h *eventHeap) grow() {
	if len(h.slab) == 0 {
		h.slab = append(h.slab, slot{})
	}
	h.free = int32(len(h.slab))
	h.slab = append(h.slab, slot{})
}

// release clears slot i and puts it on the free list.
func (h *eventHeap) release(i int32) {
	h.slab[i] = slot{next: h.free}
	h.free = i
}

// findMin finds the minimum, the earliest slot of the lowest non-empty
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
	m, prev := h.head[b], int32(0)
	for p, i := m, h.slab[m].next; i != 0; p, i = i, h.slab[i].next {
		if h.slab[i].before(&h.slab[m]) {
			m, prev = i, p
		}
	}
	h.minB, h.minI, h.minPrev, h.minOK = b, m, prev, true
}

// peek returns the next event's slot without removing it or moving
// base; the pointer is valid until the next push, pop or discard.
// Caller checks len.
func (h *eventHeap) peek() *slot {
	if !h.minOK {
		h.findMin()
	}
	return &h.slab[h.minI]
}

// pop removes the earliest event, making its key the new base, and
// returns its callback; its slot is free before the callback runs.
// Caller checks len.
//
// aitf:noalloc
func (h *eventHeap) pop() func() {
	if !h.minOK {
		h.findMin()
	}
	b, m := h.minB, h.minI
	h.baseAt, h.baseSeq = h.slab[m].at, h.slab[m].seq
	fn := h.slab[m].fn
	for i := h.head[b]; i != 0; {
		s := &h.slab[i]
		next := s.next
		if i != m {
			h.link(i, h.bucketOf(s.at, s.seq)) // always below b
		}
		i = next
	}
	h.head[b] = 0
	h.nonEmpty[b>>6] &^= 1 << (b & 63)
	h.release(m)
	h.n--
	h.minOK = false
	return fn
}

// discard removes the earliest event without moving base. Caller checks
// len.
//
// aitf:noalloc
func (h *eventHeap) discard() {
	if !h.minOK {
		h.findMin()
	}
	b, m := h.minB, h.minI
	if next := h.slab[m].next; h.minPrev != 0 {
		h.slab[h.minPrev].next = next
	} else {
		h.head[b] = next
	}
	if h.head[b] == 0 {
		h.nonEmpty[b>>6] &^= 1 << (b & 63)
	}
	h.release(m)
	h.n--
	h.minOK = false
}
