package sim

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"
)

// refQueue is the reference priority queue the heap is checked
// against: a slice that sort.Slice keeps ordered by (at, seq), sharing
// no code with the heap.
type refQueue []*Event

func (r *refQueue) insert(e *Event) {
	*r = append(*r, e)
	q := *r
	sort.Slice(q, func(i, j int) bool {
		if q[i].at != q[j].at {
			return q[i].at < q[j].at
		}
		return q[i].seq < q[j].seq
	})
}

func (r *refQueue) take() *Event {
	e := (*r)[0]
	*r = (*r)[1:]
	return e
}

// TestEventHeapOrdering drives the radix heap against the reference
// through 20 seeded interleavings of pushes and pops, demanding
// pointer-identical results on every pop and peek — the exact order the
// engine's determinism contract depends on. The script is monotone, as
// the engine is: every key is at or above the last one popped. Fire
// times sit within 50ns of the clock, so most are duplicated and seq
// decides, and a quarter of the pushes use a seq reserved earlier,
// below the fresh ones already queued, as a netsim link does. Popped
// events are pushed again under fresh keys, as the engine's free list
// does with handle-less events: the heap must order a recycled event by
// its new (at, seq) alone.
func TestEventHeapOrdering(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(11 + trial)))
		var h eventHeap
		var ref refQueue
		var free []*Event
		var now Time
		var seq, lastSeq uint64
		var reserved []uint64
		n := rng.Intn(500) + 1
		for i := 0; i < n; i++ {
			e := &Event{fn: func() {}}
			if k := len(free); k > 0 && rng.Intn(2) == 0 {
				e, free = free[k-1], free[:k-1]
			}
			e.at = now + Time(rng.Intn(50))
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
				if got, want := h.peek(), ref[0]; got != want {
					t.Fatalf("trial %d: peek = (at=%v seq=%d), want (at=%v seq=%d)",
						trial, got.at, got.seq, want.at, want.seq)
				}
				got, want := h.pop(), ref.take()
				if got != want {
					t.Fatalf("trial %d: pop = (at=%v seq=%d), want (at=%v seq=%d)",
						trial, got.at, got.seq, want.at, want.seq)
				}
				now, lastSeq = got.at, got.seq
				free = append(free, got)
			}
			if h.len() != len(ref) {
				t.Fatalf("trial %d: heap holds %d events, reference %d", trial, h.len(), len(ref))
			}
		}
		for h.len() > 0 {
			got, want := h.pop(), ref.take()
			if got != want {
				t.Fatalf("trial %d: drain pop = (at=%v seq=%d), want (at=%v seq=%d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: heap drained but reference holds %d events", trial, len(ref))
		}
	}
}

// FuzzEventQueue runs a byte script of monotone push, reserve, peek,
// pop and discard operations against the reference: every peek, pop
// and discard must meet the event the sorted reference names, and a
// discard, which drops a cancelled event, must leave the base where the
// last pop put it.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 6, 6, 6})
	f.Add([]byte{3, 3, 0, 9, 4, 1, 4, 0, 5, 7, 6, 6, 1, 200, 6})
	f.Add([]byte{0, 255, 1, 128, 2, 64, 7, 5, 6, 0, 0, 6, 7, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		var h eventHeap
		var ref refQueue
		var now Time
		var seq, lastSeq uint64
		var reserved []uint64
		arg := func(i int) Time {
			if i+1 < len(script) {
				return Time(script[i+1] % 16)
			}
			return 0
		}
		for i, op := range script {
			switch op % 8 {
			case 0, 1, 2: // post under a fresh seq
				e := &Event{at: now + arg(i), seq: seq}
				seq++
				h.push(e)
				ref.insert(e)
			case 3: // reserve a seq for later
				reserved = append(reserved, seq)
				seq++
			case 4: // post under the oldest reserved seq
				if len(reserved) == 0 {
					continue
				}
				e := &Event{at: now + arg(i), seq: reserved[0]}
				reserved = reserved[1:]
				if e.at == now && e.seq < lastSeq {
					e.at++
				}
				h.push(e)
				ref.insert(e)
			case 5: // peek
				if len(ref) > 0 && h.peek() != ref[0] {
					t.Fatalf("op %d: peek (at=%v seq=%d), want (at=%v seq=%d)", i, h.peek().at, h.peek().seq, ref[0].at, ref[0].seq)
				}
			case 6: // pop, as a fired event
				if len(ref) == 0 {
					continue
				}
				want := ref.take()
				if got := h.pop(); got != want {
					t.Fatalf("op %d: pop (at=%v seq=%d), want (at=%v seq=%d)", i, got.at, got.seq, want.at, want.seq)
				}
				now, lastSeq = want.at, want.seq
			case 7: // discard, as a cancelled event
				if len(ref) == 0 {
					continue
				}
				if got, want := h.peek(), ref.take(); got != want {
					t.Fatalf("op %d: discard would drop (at=%v seq=%d), want (at=%v seq=%d)", i, got.at, got.seq, want.at, want.seq)
				}
				h.discard()
			}
			if h.len() != len(ref) {
				t.Fatalf("op %d: heap holds %d events, reference %d", i, h.len(), len(ref))
			}
			if h.baseAt != now || h.baseSeq != lastSeq {
				t.Fatalf("op %d: base (at=%v seq=%d), want the last popped (at=%v seq=%d)", i, h.baseAt, h.baseSeq, now, lastSeq)
			}
		}
		for len(ref) > 0 {
			if got, want := h.pop(), ref.take(); got != want {
				t.Fatalf("drain: pop (at=%v seq=%d), want (at=%v seq=%d)", got.at, got.seq, want.at, want.seq)
			}
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
		var all []*Event
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
		cancelled := make(map[*Event]bool)
		for _, ev := range all[:n] {
			if rng.Intn(5) == 0 {
				ev.Cancel()
				cancelled[ev] = true
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
		for _, ev := range all {
			if cancelled[ev] && !ev.Cancelled() {
				t.Fatalf("seed %d: cancelled event lost its flag", seed)
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events left pending", seed, eng.Pending())
		}
	}
}

// TestEventHeapSteadyStateZeroAlloc pins the optimization goal: once
// every bucket has reached its high-water mark, push and pop allocate
// nothing (the old container/heap path boxed every element through an
// interface on exactly this loop). Each cycle pushes the same pattern
// of keys, shifted above the last one popped.
func TestEventHeapSteadyStateZeroAlloc(t *testing.T) {
	var h eventHeap
	const n = 64
	evs := make([]*Event, n)
	for i := range evs {
		evs[i] = &Event{fn: func() {}}
	}
	var seq uint64
	cycle := func() {
		base := h.baseAt
		for i, e := range evs {
			e.at, e.seq = base+Time(i*7%13), seq
			seq++
			h.push(e)
		}
		for h.len() > 0 {
			h.pop()
		}
	}
	// Warm to the high-water mark.
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("push/pop allocates %v per cycle at steady state, want 0", allocs)
	}
}

// BenchmarkEventQueue measures the scheduler's core loop: schedule a
// window of events, drain it, repeat — the pattern every netsim
// delivery and protocol timer follows. allocs/op isolates the Event
// allocation itself (one per Schedule; the heap adds zero). It fills
// and drains; BenchmarkEventQueueHold measures a queue held at depth.
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
