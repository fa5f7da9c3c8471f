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
// does, so base is always the last fired key.
//
// Every event lives in one slot of one slab, and each bucket is a
// singly linked list through it. A slot leaves its list only to be
// freed, and pop clears it as it frees it, so no fired callback stays
// reachable. Freed slots form a LIFO free list that push takes from
// first, so the slab holds the most events ever pending at once, and
// push and pop allocate nothing once it has reached that length. Slot 0
// is never used: a zero link ends a list, and a zero Timer names no
// event.
//
// A slot's generation word is what a Timer is checked against: cancel
// marks it (its low bit) and drops the callback, and release moves it
// past every handle given out for the slot, so a handle outliving its
// event matches nothing. A cancelled slot stays linked until a scan of
// its bucket meets it, which unlinks and frees it without moving base:
// the scan for the minimum scans the lowest bucket, and once cancelled
// events outnumber the live ones cancel scans them all. So every
// cancelled event costs O(1) amortised, never holds its slot past the
// point where the slab is half cancelled, and peek and pop only ever
// see live events.
type eventHeap struct {
	baseAt  Time
	baseSeq uint64
	n       int // linked slots, the cancelled ones among them
	dead    int // cancelled slots still linked
	// nonEmpty has bit b set while head[b] is not 0.
	nonEmpty [3]uint64
	// minB, minI locate the minimum findMin found; valid while minOK,
	// until the next push, pop, or cancel of that event.
	minB  int
	minI  int32
	minOK bool
	free  int32 // first free slot, 0 when there is none
	head  [heapBuckets]int32
	slab  []slot
}

// heapBuckets is one bucket per bit of the 128-bit key, plus one for a
// key equal to base.
const heapBuckets = 129

// slot is one queued event in 32 bytes: its key, its callback, its
// generation with the cancel mark, and the next slot in its bucket or
// on the free list. A step reads the slab alone.
type slot struct {
	at   Time
	seq  uint64
	fn   func()
	gen  uint32
	next int32
}

// cancelled is the cancel mark in a slot's generation word. A pending
// slot's generation is even until Cancel marks it; release clears the
// mark and steps past it, so the next event on the slot gets a
// generation no earlier handle holds.
const cancelled = 1

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

// push queues fn under (at, seq), which must not be below base, and
// returns the handle that cancels it.
//
// aitf:noalloc
func (h *eventHeap) push(at Time, seq uint64, fn func()) Timer {
	if h.free == 0 {
		h.grow()
	}
	i := h.free
	s := &h.slab[i]
	h.free = s.next
	s.at, s.seq, s.fn = at, seq, fn
	h.link(i, h.bucketOf(at, seq))
	h.n++
	h.minOK = false
	return Timer{slot: i, gen: s.gen}
}

// cancel marks t's event cancelled and drops its callback, unless t is
// stale: its slot has been freed since t was handed out, or t is zero.
// The slot stays linked until a scan of its bucket, findMin's or
// sweep's, frees it.
//
// aitf:noalloc
func (h *eventHeap) cancel(t Timer) {
	if t.slot <= 0 || int(t.slot) >= len(h.slab) {
		return
	}
	if s := &h.slab[t.slot]; s.gen == t.gen {
		s.gen |= cancelled
		s.fn = nil
		if t.slot == h.minI {
			h.minOK = false
		}
		if h.dead++; 2*h.dead > h.n {
			h.sweep()
		}
	}
}

// sweep frees every cancelled slot, scanning each non-empty bucket.
func (h *eventHeap) sweep() {
	for w, word := range h.nonEmpty {
		for ; word != 0; word &= word - 1 {
			b := w<<6 + bits.TrailingZeros64(word)
			for p, i := int32(0), h.head[b]; i != 0; {
				next := h.slab[i].next
				if h.slab[i].gen&cancelled != 0 {
					h.drop(b, p, i)
				} else {
					p = i
				}
				i = next
			}
			if h.head[b] == 0 {
				h.nonEmpty[w] &^= 1 << (b & 63)
			}
		}
	}
	h.minOK = false
}

// drop unlinks cancelled slot i, which follows p in bucket b (p is 0 at
// the head of the list), and frees it.
func (h *eventHeap) drop(b int, p, i int32) {
	if p == 0 {
		h.head[b] = h.slab[i].next
	} else {
		h.slab[p].next = h.slab[i].next
	}
	h.release(i)
	h.n--
	h.dead--
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

// release clears slot i, moves its generation on, and puts it on the
// free list.
func (h *eventHeap) release(i int32) {
	h.slab[i] = slot{gen: (h.slab[i].gen | cancelled) + 1, next: h.free}
	h.free = i
}

// findMin finds the minimum, the earliest live slot of the lowest
// non-empty bucket, and caches it for peek and pop until the next push,
// pop, or cancel of it. Its scan frees the bucket's cancelled slots; a
// bucket that held only those empties, and the search moves on to the
// next. It reports false when no live event is left.
//
// aitf:noalloc
func (h *eventHeap) findMin() bool {
	for {
		var b int
		switch {
		case h.nonEmpty[0] != 0:
			b = bits.TrailingZeros64(h.nonEmpty[0])
		case h.nonEmpty[1] != 0:
			b = 64 + bits.TrailingZeros64(h.nonEmpty[1])
		case h.nonEmpty[2] != 0:
			b = 128 + bits.TrailingZeros64(h.nonEmpty[2])
		default:
			return false
		}
		m := int32(0)
		for p, i := int32(0), h.head[b]; i != 0; {
			s := &h.slab[i]
			next := s.next
			if s.gen&cancelled != 0 {
				h.drop(b, p, i)
			} else {
				if m == 0 || s.before(&h.slab[m]) {
					m = i
				}
				p = i
			}
			i = next
		}
		if m != 0 {
			h.minB, h.minI, h.minOK = b, m, true
			return true
		}
		h.nonEmpty[b>>6] &^= 1 << (b & 63)
	}
}

// peek returns the next live event's slot without removing it or
// moving base, or nil when none is left; the pointer is valid until the
// next push, pop or cancel.
//
// aitf:noalloc
func (h *eventHeap) peek() *slot {
	if !h.minOK && !h.findMin() {
		return nil
	}
	return &h.slab[h.minI]
}

// pop removes the earliest live event, making its key the new base, and
// returns its callback; its slot is free before the callback runs.
// Caller checks that peek finds one.
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
