package sim

// eventHeap is a concrete 4-ary min-heap of events ordered by
// (at, seq). It replaces the container/heap eventQueue: the generic
// heap paid an interface conversion on every Push/Pop and a binary
// tree twice as deep, and every scenario run pays millions of
// pops. A 4-ary layout halves the tree depth (sift-down compares up to
// four children per level but touches adjacent memory), and the
// concrete element type keeps push/pop free of interface boxing and of
// allocations at steady state — the backing slice only grows when the
// pending-event high-water mark does.
//
// Each slot carries its event's order key by value, so a compare reads
// the heap's own array and never follows the *Event; a sift moves a
// hole through the tree and writes the displaced entry once, instead of
// swapping at every level. (at, seq) is a strict total order — seq is
// unique per engine — so the pop order is the same for any correct
// heap, whatever its layout.
type eventHeap struct{ evs []heapEntry }

// heapEntry is one queued event with the (at, seq) it was pushed under.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *Event
}

// heapArity is the branching factor. Child c of node i is
// heapArity*i+1+c; the parent of node i is (i-1)/heapArity.
const heapArity = 4

// before is the queue order: earliest fire time first, ties broken by
// scheduling order so a run is fully reproducible.
func (a *heapEntry) before(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return len(h.evs) }

// peek returns the next event without removing it. Caller checks len.
func (h *eventHeap) peek() *Event { return h.evs[0].ev }

// push queues e under its current (at, seq); the caller must not change
// either while e is queued.
func (h *eventHeap) push(e *Event) {
	ent := heapEntry{at: e.at, seq: e.seq, ev: e}
	h.evs = append(h.evs, ent)
	i := len(h.evs) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !ent.before(&h.evs[p]) {
			break
		}
		h.evs[i] = h.evs[p]
		i = p
	}
	h.evs[i] = ent
}

// pop removes and returns the earliest event.
//
// aitf:noalloc
func (h *eventHeap) pop() *Event {
	n := len(h.evs) - 1
	root := h.evs[0].ev
	last := h.evs[n]
	h.evs[n] = heapEntry{} // release the reference so fired events can be GC'd
	h.evs = h.evs[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return root
}

// siftDown fills the hole at the root with ent: the smallest child
// moves up into the hole until ent is no later than every child.
//
// aitf:noalloc
func (h *eventHeap) siftDown(ent heapEntry) {
	evs := h.evs
	n, i := len(evs), 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if evs[c].before(&evs[min]) {
				min = c
			}
		}
		if !evs[min].before(&ent) {
			break
		}
		evs[i] = evs[min]
		i = min
	}
	evs[i] = ent
}
