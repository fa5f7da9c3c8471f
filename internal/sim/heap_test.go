package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestEventHeapOrdering drives the 4-ary heap against a reference
// priority queue (a slice that sort.Slice keeps ordered by (at, seq),
// sharing no code with the heap) through 20 seeded interleavings of
// pushes and pops, demanding pointer-identical results on every pop and
// peek — the exact order the engine's determinism contract depends on.
// Fire times are drawn from 50 values, so most are duplicated and seq
// decides. Popped events are pushed again under fresh keys, as the
// engine's free list does with handle-less events: the heap must order
// a recycled event by its new (at, seq) alone.
func TestEventHeapOrdering(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(11 + trial)))
		var h eventHeap
		var ref, free []*Event
		refInsert := func(e *Event) {
			ref = append(ref, e)
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].at != ref[j].at {
					return ref[i].at < ref[j].at
				}
				return ref[i].seq < ref[j].seq
			})
		}
		n := rng.Intn(500) + 1
		seq := uint64(0)
		for i := 0; i < n; i++ {
			e := &Event{fn: func() {}}
			if k := len(free); k > 0 && rng.Intn(2) == 0 {
				e, free = free[k-1], free[:k-1]
			}
			e.at, e.seq = Time(rng.Intn(50)), seq
			seq++
			h.push(e)
			refInsert(e)
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
				got, want := h.pop(), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("trial %d: pop = (at=%v seq=%d), want (at=%v seq=%d)",
						trial, got.at, got.seq, want.at, want.seq)
				}
				free = append(free, got)
			}
			if h.len() != len(ref) {
				t.Fatalf("trial %d: heap holds %d events, reference %d", trial, h.len(), len(ref))
			}
		}
		for h.len() > 0 {
			got, want := h.pop(), ref[0]
			ref = ref[1:]
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
// the backing array has reached its high-water mark, push and pop
// allocate nothing (the old container/heap path boxed every element
// through an interface on exactly this loop).
func TestEventHeapSteadyStateZeroAlloc(t *testing.T) {
	var h eventHeap
	const n = 64
	evs := make([]*Event, n)
	for i := range evs {
		evs[i] = &Event{at: Time(i * 7 % 13), seq: uint64(i), fn: func() {}}
	}
	// Warm to the high-water mark.
	for _, e := range evs {
		h.push(e)
	}
	for h.len() > 0 {
		h.pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, e := range evs {
			h.push(e)
		}
		for h.len() > 0 {
			h.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop allocates %v per cycle at steady state, want 0", allocs)
	}
}

// BenchmarkEventQueue measures the scheduler's core loop: schedule a
// window of events, drain it, repeat — the pattern every netsim
// delivery and protocol timer follows. allocs/op isolates the Event
// allocation itself (one per Schedule; the heap adds zero).
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
