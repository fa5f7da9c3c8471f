package sim

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// refEvent is one event as the reference sees it: its key and an id
// its callback reports when called.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is the reference priority queue the heap is checked
// against: a slice that sort.Slice keeps ordered by (at, seq), sharing
// no code with the heap.
type refQueue []refEvent

func (r *refQueue) insert(e refEvent) {
	*r = append(*r, e)
	q := *r
	sort.Slice(q, func(i, j int) bool {
		if q[i].at != q[j].at {
			return q[i].at < q[j].at
		}
		return q[i].seq < q[j].seq
	})
}

func (r *refQueue) take() refEvent {
	e := (*r)[0]
	*r = (*r)[1:]
	return e
}

// remove drops the event with the given id, reporting whether it was
// there.
func (r *refQueue) remove(id int) bool {
	for i, e := range *r {
		if e.id == id {
			*r = append((*r)[:i], (*r)[i+1:]...)
			return true
		}
	}
	return false
}

// idHeap is the heap under test with each event's callback reporting
// the id it was pushed with, so a pop names the event it removed.
type idHeap struct {
	eventHeap
	fired int
}

// push queues e with a callback that records e.id and returns its
// handle.
func (h *idHeap) push(e refEvent) Timer {
	return h.eventHeap.push(e.at, e.seq, func() { h.fired = e.id })
}

// is reports whether slot s holds event e, live: its key, no cancel
// mark, and a callback that reports e's id.
func (h *idHeap) is(s *slot, e refEvent) bool {
	if s == nil || s.at != e.at || s.seq != e.seq || s.gen&cancelled != 0 || s.fn == nil {
		return false
	}
	h.fired = -1
	s.fn()
	return h.fired == e.id
}

// cancelMin cancels the earliest live event through a handle made for
// its slot, as a Timer holder would, and reports whether there was one.
func (h *eventHeap) cancelMin() bool {
	if h.peek() == nil {
		return false
	}
	h.cancel(Timer{slot: h.minI, gen: h.slab[h.minI].gen})
	return true
}

// live counts the linked slots that are not cancelled: the events
// still to fire.
func (h *eventHeap) live() int {
	n := 0
	for _, i := range h.head {
		for ; i != 0; i = h.slab[i].next {
			if h.slab[i].gen&cancelled == 0 {
				n++
			}
		}
	}
	return n
}

// popID pops the earliest event and returns the id its callback
// reports.
func (h *idHeap) popID() int {
	h.fired = -1
	h.pop()()
	return h.fired
}

// freeSlots walks the free list and reports its length and whether a
// free slot still holds a callback or a cancel mark. A walk longer
// than the slab is a cycle, and counts as stale.
func (h *eventHeap) freeSlots() (n int, stale bool) {
	for i := h.free; i != 0; i = h.slab[i].next {
		if n++; n >= len(h.slab) {
			return n, true
		}
		if s := &h.slab[i]; s.fn != nil || s.gen&cancelled != 0 {
			stale = true
		}
	}
	return n, stale
}

// TestEventHeapOrdering drives the radix heap against the reference
// through 20 seeded interleavings of pushes and pops, demanding the
// same event on every pop and peek — the exact order the engine's
// determinism contract depends on. The script is monotone, as the
// engine is: every key is at or above the last one popped. Fire times
// sit within 50ns of the clock, so most are duplicated and seq decides,
// and a quarter of the pushes use a seq reserved earlier, below the
// fresh ones already queued, as a netsim link does. Every pop frees a
// slot that a later push reuses under a fresh key: the heap must order
// a reused slot by its new (at, seq) alone.
func TestEventHeapOrdering(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(11 + trial)))
		var h idHeap
		var ref refQueue
		var now Time
		var seq, lastSeq uint64
		var reserved []uint64
		n := rng.Intn(500) + 1
		for i := 0; i < n; i++ {
			e := refEvent{at: now + Time(rng.Intn(50)), id: i}
			if k := len(reserved); k > 0 && rng.Intn(4) == 0 {
				e.seq, reserved = reserved[k-1], reserved[:k-1]
				if e.at == now && e.seq < lastSeq {
					e.at++ // a reserved seq below the last popped needs a later instant
				}
			} else {
				e.seq = seq
				seq++
			}
			for r := rng.Intn(3); r > 0 && rng.Intn(4) == 0; r-- {
				reserved = append(reserved, seq)
				seq++
			}
			h.push(e)
			ref.insert(e)
			// Pop in bursts now and then, so the script visits both a
			// deep heap and a nearly empty one.
			pops := 0
			switch rng.Intn(16) {
			case 0:
				pops = rng.Intn(h.len() + 1)
			case 1, 2, 3, 4:
				pops = 1
			}
			for ; pops > 0; pops-- {
				want := ref.take()
				if got := h.peek(); !h.is(got, want) {
					t.Fatalf("trial %d: peek = (at=%v seq=%d), want (at=%v seq=%d)",
						trial, got.at, got.seq, want.at, want.seq)
				}
				if got := h.popID(); got != want.id {
					t.Fatalf("trial %d: pop = event %d, want %d", trial, got, want.id)
				}
				now, lastSeq = want.at, want.seq
			}
			if h.len() != len(ref) {
				t.Fatalf("trial %d: heap holds %d events, reference %d", trial, h.len(), len(ref))
			}
		}
		for h.len() > 0 {
			if got, want := h.popID(), ref.take(); got != want.id {
				t.Fatalf("trial %d: drain pop = event %d, want %d", trial, got, want.id)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: heap drained but reference holds %d events", trial, len(ref))
		}
		if free, stale := h.freeSlots(); stale || free != len(h.slab)-1 {
			t.Fatalf("trial %d: drained queue frees %d of %d slots, stale=%v", trial, free, len(h.slab)-1, stale)
		}
	}
}

// FuzzEventQueue runs a byte script of monotone push, reserve, peek,
// pop and cancel operations against the reference: every peek and pop
// must meet the event the sorted reference names, and a cancel must
// leave the base where the last pop put it. One cancel goes through a
// handle an earlier push kept, live or stale: a live one stops exactly
// its event, and a stale one, whose event fired or was cancelled
// already, changes nothing, though its slot may hold a later event by
// now. The other cancels the earliest event, as a cancelled timer at
// the front of the queue. After each operation the heap holds the
// reference's events and no others live, a kept handle matches its
// slot exactly while its event is pending and not cancelled, and every
// slot is linked, free or slot 0; once drained no free slot may keep a
// callback reachable or a cancel mark set. The spare_reuse seed pushes
// 600 events at one instant, pops them, and pushes and drains 600 more,
// so that the second fill runs on the slots the first one freed; the
// stale_cancel seed cancels through handles whose slots were reused.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 6, 6, 6})
	f.Add([]byte{3, 3, 0, 9, 4, 1, 4, 0, 5, 7, 6, 6, 1, 200, 6})
	f.Add([]byte{0, 255, 1, 128, 2, 64, 7, 5, 6, 0, 0, 6, 7, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		var h idHeap
		var ref refQueue
		var now Time
		var seq, lastSeq uint64
		var reserved []uint64
		type kept struct {
			t  Timer
			id int
		}
		var handles []kept
		arg := func(i int) Time {
			if i+1 < len(script) {
				return Time(script[i+1] % 16)
			}
			return 0
		}
		for i, op := range script {
			switch op % 9 {
			case 0, 1, 2: // post under a fresh seq; 1 keeps the handle, as Schedule's caller does
				e := refEvent{at: now + arg(i), seq: seq, id: i}
				seq++
				if tm := h.push(e); op%9 == 1 {
					handles = append(handles, kept{tm, i})
				}
				ref.insert(e)
			case 3: // reserve a seq for later
				reserved = append(reserved, seq)
				seq++
			case 4: // post under the oldest reserved seq
				if len(reserved) == 0 {
					continue
				}
				e := refEvent{at: now + arg(i), seq: reserved[0], id: i}
				reserved = reserved[1:]
				if e.at == now && e.seq < lastSeq {
					e.at++
				}
				h.push(e)
				ref.insert(e)
			case 5: // peek
				if len(ref) > 0 && !h.is(h.peek(), ref[0]) {
					t.Fatalf("op %d: peek does not hold (at=%v seq=%d)", i, ref[0].at, ref[0].seq)
				}
				if len(ref) == 0 && h.peek() != nil {
					t.Fatalf("op %d: peek found an event in an empty queue", i)
				}
			case 6: // pop, as a fired event
				if len(ref) == 0 {
					continue
				}
				want := ref.take()
				if got := h.popID(); got != want.id {
					t.Fatalf("op %d: pop event %d, want %d (at=%v seq=%d)", i, got, want.id, want.at, want.seq)
				}
				now, lastSeq = want.at, want.seq
			case 7: // cancel the earliest event
				if len(ref) == 0 {
					continue
				}
				if want := ref[0]; !h.is(h.peek(), want) {
					t.Fatalf("op %d: the earliest event is not (at=%v seq=%d)", i, want.at, want.seq)
				}
				h.cancelMin()
				ref.take()
			case 8: // cancel through a kept handle, live or stale
				if len(handles) == 0 {
					continue
				}
				k := handles[int(arg(i))%len(handles)]
				h.cancel(k.t)
				ref.remove(k.id)
			}
			if h.live() != len(ref) {
				t.Fatalf("op %d: heap holds %d live events, reference %d", i, h.live(), len(ref))
			}
			if h.baseAt != now || h.baseSeq != lastSeq {
				t.Fatalf("op %d: base (at=%v seq=%d), want the last popped (at=%v seq=%d)", i, h.baseAt, h.baseSeq, now, lastSeq)
			}
			if free, _ := h.freeSlots(); len(h.slab) > 0 && free+h.len()+1 != len(h.slab) {
				t.Fatalf("op %d: %d free and %d linked slots of %d, want all but slot 0", i, free, h.len(), len(h.slab))
			}
			for _, k := range handles {
				live := false
				for _, e := range ref {
					live = live || e.id == k.id
				}
				if s := &h.slab[k.t.slot]; (s.gen == k.t.gen) != live || live && s.fn == nil {
					t.Fatalf("op %d: handle of event %d matches its slot=%v, event live=%v", i, k.id, s.gen == k.t.gen, live)
				}
			}
		}
		for len(ref) > 0 {
			if got, want := h.popID(), ref.take(); got != want.id {
				t.Fatalf("drain: pop event %d, want %d (at=%v seq=%d)", got, want.id, want.at, want.seq)
			}
		}
		if h.peek() != nil || h.len() != 0 {
			t.Fatalf("drained queue still links %d slots", h.len())
		}
		if _, stale := h.freeSlots(); stale {
			t.Fatal("drained queue: a free slot still holds a callback or a cancel mark")
		}
	})
}

// TestEngineOrderingMatchesSortedReplay schedules a random mix of
// events (duplicate times, cancellations, re-entrant scheduling) and
// checks the engine fires them in exactly (at, seq) order with
// cancelled events skipped — the contract the old container/heap queue
// provided.
func TestEngineOrderingMatchesSortedReplay(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine(seed)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		var all []Timer
		n := 300
		seq := 0
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(40)) * time.Millisecond
			id := seq
			seq++
			ev := eng.ScheduleAt(at, func() {
				fired = append(fired, rec{eng.Now(), id})
				// Occasionally schedule re-entrantly, as protocol code does.
				if len(fired)%17 == 0 {
					nid := seq
					seq++
					at2 := eng.Now() + Time(rng.Intn(5))*time.Millisecond
					all = append(all, eng.ScheduleAt(at2, func() {
						fired = append(fired, rec{eng.Now(), nid})
					}))
				}
			})
			all = append(all, ev)
		}
		// Cancel a random subset before running.
		cancelledIDs := make(map[int]bool)
		for id, ev := range all[:n] {
			if rng.Intn(5) == 0 {
				eng.Cancel(ev)
				cancelledIDs[id] = true
			}
		}
		eng.Run()
		// Fire order must be non-decreasing in time, and ties must fire
		// in scheduling order (ids increase within one instant for the
		// non-re-entrant prefix population).
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				t.Fatalf("seed %d: time went backwards: %v after %v", seed, fired[i].at, fired[i-1].at)
			}
		}
		for _, f := range fired {
			if cancelledIDs[f.seq] {
				t.Fatalf("seed %d: cancelled event %d fired", seed, f.seq)
			}
		}
		if eng.heap.len() != 0 {
			t.Fatalf("seed %d: %d events left pending", seed, eng.heap.len())
		}
	}
}

// TestEventHeapSteadyStateZeroAlloc pins the optimization goal: once
// the slab has reached the most events pending, push and pop allocate
// nothing (the old container/heap path boxed every element through an
// interface on exactly this loop). Each cycle pushes the same pattern
// of keys, shifted above the last one popped: 1,024 events on 13
// instants, every one on a slot the cycle before freed.
func TestEventHeapSteadyStateZeroAlloc(t *testing.T) {
	var h eventHeap
	const n = 1024
	fn := func() {}
	var seq uint64
	cycle := func() {
		base := h.baseAt
		for i := 0; i < n; i++ {
			h.push(base+Time(i*7%13), seq, fn)
			seq++
		}
		for h.len() > 0 {
			h.pop()
		}
	}
	// Warm to the working size.
	for i := 0; i < 100; i++ {
		cycle()
	}
	if len(h.slab) != n+1 {
		t.Fatalf("slab holds %d slots after cycles of %d events, want %d", len(h.slab), n, n+1)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("push/pop allocates %v per cycle at steady state, want 0", allocs)
	}
}

// TestEventQueueMemoryBound drives the queue through a hold model whose
// fire times spread over a second, half of them on a 2^20 ns (about
// 1 ms) grid so that many share an instant, with the number pending
// swinging between 300 and 3,000 and one removal in eight the cancel
// of the earliest event, which the next scan for the minimum frees. The slab must never hold more slots than the peak
// pending events, plus slot 0 (a queue that keeps every bucket's
// high-water mark holds about 10 per event): each push must reuse a
// freed slot while there is one. No free slot may keep a callback
// reachable or a cancel mark set.
func TestEventQueueMemoryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	var seq uint64
	fn := func() {}
	peak, pushes := 0, 0
	for step := 0; step < 300_000; step++ {
		target := 3000
		if step/40_000%2 == 1 {
			target = 300
		}
		if h.len() >= target {
			if rng.Intn(8) == 0 {
				h.cancelMin() // a cancelled timer at the front
			} else {
				h.pop()
			}
		}
		if h.len() <= target {
			d := rng.Int63n(1 << 30)
			if rng.Intn(2) == 0 {
				d &^= 1<<20 - 1
			}
			h.push(h.baseAt+Time(d), seq, fn)
			seq++
			pushes++
		}
		peak = max(peak, h.len())
		if step%64 != 0 {
			continue
		}
		if used := len(h.slab) - 1; used > peak {
			t.Fatalf("step %d: slab holds %d slots for a peak of %d pending events", step, used, peak)
		}
		if free, stale := h.freeSlots(); stale || free+h.len()+1 != len(h.slab) {
			t.Fatalf("step %d: %d free and %d pending of %d slots, stale=%v", step, free, h.len(), len(h.slab), stale)
		}
	}
	t.Logf("peak %d pending: slab %d slots (capacity %d, %d bytes a slot) over %d pushes",
		peak, len(h.slab), cap(h.slab), unsafe.Sizeof(slot{}), pushes)
	if len(h.slab)-1 != peak {
		t.Fatalf("slab holds %d slots for a peak of %d pending events: a freed slot went unused", len(h.slab)-1, peak)
	}
}

// BenchmarkEventQueue measures the scheduler's core loop: schedule a
// window of events, drain it, repeat — the pattern every netsim
// delivery and protocol timer follows. allocs/op reads 0: the handle
// is a value, and the queue's slots are reused. It fills and
// drains; BenchmarkEventQueueHold measures a queue held at depth.
func BenchmarkEventQueue(b *testing.B) {
	const window = 256
	eng := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < window; j++ {
			eng.Schedule(Time(j%29)*time.Microsecond, fn)
		}
		eng.Run()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)*window/s, "events/s")
	}
}

// BenchmarkEventQueueHold is the classic hold model: with size events
// pending, each op fires the earliest and its callback posts one at now
// plus a random delay below 5ms, so the depth never changes. 128 and
// 1536 are about the mean queue depths of the sim_scenarios and
// sim_army workloads.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, size := range []int{128, 1536} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]Time, 4096)
			for i := range delays {
				delays[i] = Time(rng.Int63n(int64(5 * time.Millisecond)))
			}
			e := NewEngine(1)
			next := 0
			var hold func()
			hold = func() {
				e.Post(e.Now()+delays[next&(len(delays)-1)], hold)
				next++
			}
			for i := 0; i < size; i++ {
				hold()
			}
			for i := 0; i < 4*size; i++ {
				e.Step() // warm every bucket to its working size
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
