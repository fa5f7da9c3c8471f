package detect

import "aitf/internal/sim"

// hhEntry is one heavy-hitter candidate tracked by the space-saving
// summary. Besides the classic (count, err) pair it carries the
// per-key detection state — flagged, first/last seen — so the engine
// can suppress duplicate detections and re-arm after quiet periods
// without any auxiliary map.
type hhEntry struct {
	key   uint64
	count uint64 // space-saving byte count (monotone while the key is held)
	err   uint64 // count inherited from the evicted predecessor

	firstSeen sim.Time
	lastSeen  sim.Time
	flagged   bool
	flaggedAt sim.Time

	heapIdx int32 // position in the count min-heap
}

// topk is a space-saving heavy-hitter summary over a budget of k
// entries: every observed key is charged to an entry, and when all k
// are taken the key with the smallest count is displaced, the
// newcomer inheriting its count as err (the standard Metwally et al.
// construction, which guarantees count ≥ true bytes for held keys).
//
// The structure is a slab of entries, an open-addressed key index with
// backward-shift deletion, and an indexed min-heap for O(log k)
// eviction. It starts empty and grows by doubling up to the budget, so
// it holds memory for the keys it has seen; once it has grown, touch
// never allocates.
type topk struct {
	entries []hhEntry
	heap    []int32 // entry indices ordered by count (min at heap[0])
	budget  int     // most entries held

	// Open-addressed index: slot -> entry index, or -1 when free. It
	// has at least four slots per entry the slab can hold, and none
	// before the first key.
	slots []int32
	mask  uint32
	seed  uint64

	evictions uint64
}

// newTopK builds an empty summary that holds up to k keys, at most
// MaxTopK.
func newTopK(k int, seed uint64) *topk {
	return &topk{budget: k, seed: splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5)}
}

// grow makes room for at least n entries, n at most the budget: the
// slab and heap double (from four) up to the budget, and the index is
// rebuilt at four slots per entry, rounded up to a power of two.
func (t *topk) grow(n int) {
	c := max(cap(t.entries), 4)
	for c < n {
		c *= 2
	}
	c = min(c, t.budget)
	entries := make([]hhEntry, len(t.entries), c)
	copy(entries, t.entries)
	heap := make([]int32, len(t.heap), c)
	copy(heap, t.heap)
	t.entries, t.heap = entries, heap
	w := uint32(4)
	for int(w) < 4*c {
		w <<= 1
	}
	t.slots, t.mask = make([]int32, w), w-1
	t.reindex()
}

// reindex rebuilds the key index from the slab.
func (t *topk) reindex() {
	for i := range t.slots {
		t.slots[i] = -1
	}
	for i := range t.entries {
		t.indexInsert(t.entries[i].key, int32(i))
	}
}

func (t *topk) home(key uint64) uint32 {
	return uint32(splitmix64(key^t.seed)) & t.mask
}

// find returns the entry index for key, or -1.
func (t *topk) find(key uint64) int32 {
	if t.slots == nil {
		return -1
	}
	for s := t.home(key); ; s = (s + 1) & t.mask {
		ei := t.slots[s]
		if ei < 0 {
			return -1
		}
		if t.entries[ei].key == key {
			return ei
		}
	}
}

// indexInsert adds key -> ei to the open-addressed index.
func (t *topk) indexInsert(key uint64, ei int32) {
	s := t.home(key)
	for t.slots[s] >= 0 {
		s = (s + 1) & t.mask
	}
	t.slots[s] = ei
}

// indexDelete removes key from the index using backward-shift deletion,
// which leaves no tombstones and keeps probe runs canonical.
func (t *topk) indexDelete(key uint64) {
	s := t.home(key)
	for {
		ei := t.slots[s]
		if ei < 0 {
			return // not present
		}
		if t.entries[ei].key == key {
			break
		}
		s = (s + 1) & t.mask
	}
	// Backward shift: pull each subsequent probe-run member into the
	// hole if doing so moves it no earlier than its home slot.
	hole := s
	for i := (s + 1) & t.mask; t.slots[i] >= 0; i = (i + 1) & t.mask {
		home := t.home(t.entries[t.slots[i]].key)
		// The element may move into the hole only if the hole lies
		// within [home, i] cyclically.
		if ((i - home) & t.mask) >= ((i - hole) & t.mask) {
			t.slots[hole] = t.slots[i]
			hole = i
		}
	}
	t.slots[hole] = -1
}

// ── indexed min-heap over entry counts ───────────────────────────────

func (t *topk) heapLess(a, b int32) bool {
	return t.entries[a].count < t.entries[b].count
}

func (t *topk) heapSwap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.entries[t.heap[i]].heapIdx = int32(i)
	t.entries[t.heap[j]].heapIdx = int32(j)
}

func (t *topk) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.heapLess(t.heap[i], t.heap[p]) {
			return
		}
		t.heapSwap(i, p)
		i = p
	}
}

func (t *topk) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && t.heapLess(t.heap[l], t.heap[m]) {
			m = l
		}
		if r < n && t.heapLess(t.heap[r], t.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		t.heapSwap(i, m)
		i = m
	}
}

// touch charges n bytes to key at time now, returning its entry. When
// the key is new and the budget is exhausted, the minimum-count entry
// is displaced (space-saving takeover): the newcomer starts from the
// victim's count — preserving the overestimate invariant — with err
// recording the inherited uncertainty. quiet > 0 re-arms an existing
// entry whose last observation is at least quiet ago: its flag clears
// and its count restarts, so an on-off source is re-detected after a
// silence, mirroring the oracle detector's window reset.
func (t *topk) touch(key uint64, n uint64, now, quiet sim.Time) *hhEntry {
	if ei := t.find(key); ei >= 0 {
		e := &t.entries[ei]
		if quiet > 0 && now-e.lastSeen >= quiet {
			e.flagged = false
			e.firstSeen = now
			e.err = 0
			e.count = 0
		}
		e.count += n
		e.lastSeen = now
		// A quiet re-arm shrinks the count (sift up); a plain charge
		// grows it (sift down). Restore the heap either way.
		t.siftUp(int(e.heapIdx))
		t.siftDown(int(e.heapIdx))
		return e
	}
	if len(t.entries) < t.budget {
		if len(t.entries) == cap(t.entries) {
			t.grow(len(t.entries) + 1)
		}
		t.entries = append(t.entries, hhEntry{
			key: key, count: n,
			firstSeen: now, lastSeen: now,
			heapIdx: int32(len(t.heap)),
		})
		ei := int32(len(t.entries) - 1)
		t.heap = append(t.heap, ei)
		t.indexInsert(key, ei)
		t.siftUp(int(ei))
		return &t.entries[ei]
	}
	// Budget exhausted: displace the minimum-count entry.
	ei := t.heap[0]
	e := &t.entries[ei]
	t.indexDelete(e.key)
	t.evictions++
	*e = hhEntry{
		key:   key,
		count: e.count + n,
		err:   e.count,

		firstSeen: now,
		lastSeen:  now,
		heapIdx:   0,
	}
	t.indexInsert(key, ei)
	t.siftDown(0)
	return e
}

// rotate starts a new measurement window: every count (and inherited
// err) restarts at zero so that count − err lower-bounds the key's
// bytes within the current window, while detection state (flags,
// first/last seen) survives. O(k), run once per window.
func (t *topk) rotate() {
	for i := range t.entries {
		t.entries[i].count = 0
		t.entries[i].err = 0
	}
	// All counts equal: any heap order is a valid min-heap already.
}

// reset empties the summary in place, keeping its slab, heap and index
// arrays.
func (t *topk) reset() {
	t.entries = t.entries[:0]
	t.heap = t.heap[:0]
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.evictions = 0
}

// get returns the entry for key, or nil.
func (t *topk) get(key uint64) *hhEntry {
	if ei := t.find(key); ei >= 0 {
		return &t.entries[ei]
	}
	return nil
}

// len reports how many keys are currently held.
func (t *topk) len() int { return len(t.entries) }
