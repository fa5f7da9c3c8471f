package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // a second cancel is a no-op
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.heap.len() != 0 || e.Now() != 0 {
		t.Fatalf("a cancelled event left %d pending and moved the clock to %v", e.heap.len(), e.Now())
	}
	e.Cancel(Timer{}) // the zero handle names no event
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(2*time.Millisecond, func() { fired = true })
	e.Schedule(time.Millisecond, func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Fatal("event fired despite cancellation by earlier event")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
	if e.heap.len() != 2 {
		t.Fatalf("Pending = %d, want 2", e.heap.len())
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(time.Minute)
	if e.Now() != time.Minute {
		t.Fatalf("Now = %v, want 1m", e.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.Schedule(time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*time.Millisecond {
		t.Fatalf("Now = %v, want 99ms", e.Now())
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(time.Second, func() {
		at := e.Now()
		e.Schedule(-5*time.Second, func() {
			if fired = true; e.Now() != at {
				t.Fatalf("negative delay fired at %v, want %v", e.Now(), at)
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestStep(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(time.Millisecond, func() { count++ })
	e.Schedule(2*time.Millisecond, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatalf("first Step: count = %d, want 1", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second Step: count = %d, want 2", count)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and the engine visits every event exactly once.
func TestPropertyFiringOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		var fired []Time
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Microsecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnNilCallback(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	NewEngine(1).Schedule(0, nil)
}

// TestPostFiresInScheduleOrder runs one random script on two engines:
// the reference schedules every event with ScheduleAt; the other enters
// the same events through a random mix of ScheduleAt, Post and the
// reserve-now-post-later form a netsim link uses (a chain of events
// with non-decreasing times whose seqs are all taken up front, each
// posted only when the one before it fires). Both must fire the same
// events in the same order and count them all.
func TestPostFiresInScheduleOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		run := func(pooled bool) (fired []int, processed uint64) {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine(seed)
			id := 0
			var add func(depth int)
			add = func(depth int) {
				at := e.Now() + Time(rng.Intn(30))*time.Millisecond
				me := id
				id++
				fn := func() {
					fired = append(fired, me)
					if depth < 3 && rng.Intn(3) == 0 {
						add(depth + 1) // re-entrant, as protocol code does
					}
				}
				switch form := rng.Intn(3); {
				case !pooled || form == 0:
					e.ScheduleAt(at, fn)
				case form == 1:
					e.Post(at, fn)
				default:
					e.PostReserved(at, e.ReserveSeq(), fn)
				}
			}
			// chain enters k events with non-decreasing times.
			chain := func(k int) {
				type link struct {
					at  Time
					seq uint64
					id  int
				}
				links := make([]link, k)
				at := e.Now()
				for i := range links {
					at += Time(rng.Intn(3)) * time.Millisecond
					links[i] = link{at: at, id: id}
					id++
				}
				if !pooled {
					for _, l := range links {
						l := l
						e.ScheduleAt(l.at, func() { fired = append(fired, l.id) })
					}
					return
				}
				for i := range links {
					links[i].seq = e.ReserveSeq()
				}
				var head func()
				next := 0
				head = func() {
					l := links[next]
					if next++; next < len(links) {
						e.PostReserved(links[next].at, links[next].seq, head)
					}
					fired = append(fired, l.id)
				}
				e.PostReserved(links[0].at, links[0].seq, head)
			}
			for i := 0; i < 200; i++ {
				if rng.Intn(8) == 0 {
					chain(rng.Intn(20) + 1)
				} else {
					add(0)
				}
			}
			e.Run()
			return fired, e.Processed
		}
		want, wantN := run(false)
		got, gotN := run(true)
		if gotN != wantN || len(got) != len(want) {
			t.Fatalf("seed %d: pooled forms fired %d events (Processed %d), ScheduleAt %d (%d)", seed, len(got), gotN, len(want), wantN)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: fire %d is event %d, ScheduleAt order has %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestPooledEventNeverFiresStaleCallback: a fired event's slot goes
// back to the free list before its callback runs, so the callback's own
// Post reuses it; the old callback must not run again through the
// reuse, and a free slot must not keep a callback reachable.
func TestPooledEventNeverFiresStaleCallback(t *testing.T) {
	e := NewEngine(1)
	var a, b, c int
	e.Post(time.Millisecond, func() {
		a++
		e.Post(e.Now()+time.Millisecond, func() { b++ }) // takes a's slot
	})
	e.Run()
	e.Post(e.Now(), func() { c++ }) // and again
	e.Run()
	if a != 1 || b != 1 || c != 1 {
		t.Fatalf("callbacks fired a=%d b=%d c=%d times, want once each", a, b, c)
	}
	if len(e.heap.slab) != 2 {
		t.Fatalf("slab holds %d slots, want slot 0 and the one slot reused three times", len(e.heap.slab))
	}
	if free, stale := e.heap.freeSlots(); free != 1 || stale {
		t.Fatalf("free list holds %d slots, stale=%v: want the one slot, cleared", free, stale)
	}
}

// TestHandleSurvivesPooledChurn: a handle from Schedule names its
// slot and the slot's generation, and the slot moves to a new
// generation when it is freed, so the handle stays valid however many
// handle-less events churn through the queue in between. Cancelling a
// live one long after stops exactly it, and cancelling one that
// already fired touches nothing, though its slot now holds another
// callback: the first Post after it fires takes that slot, and later
// ones churn through it.
func TestHandleSurvivesPooledChurn(t *testing.T) {
	e := NewEngine(1)
	spentFired, liveFired := false, false
	spent := e.Schedule(time.Millisecond, func() { spentFired = true })
	live := e.Schedule(time.Hour, func() { liveFired = true })
	e.RunUntil(time.Second)
	if !spentFired {
		t.Fatal("handle event did not fire")
	}
	reused := false
	e.Post(e.Now()+time.Millisecond, func() { reused = true }) // on spent's slot
	e.Cancel(spent)
	e.RunUntil(e.Now() + time.Second)
	if !reused {
		t.Fatal("cancelling a fired handle cancelled the event on its reused slot")
	}

	pooled := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			e.Post(e.Now()+Time(i)*time.Microsecond, func() { pooled++ })
		}
		if round == 25 {
			e.Cancel(spent) // while pooled events are pending
		}
		e.RunUntil(e.Now() + time.Second)
	}
	e.Cancel(live)
	e.Post(e.Now(), func() { pooled++ })
	e.Run()
	if pooled != 5001 {
		t.Fatalf("%d of 5001 pooled events fired: a stale handle cancelled one", pooled)
	}
	if liveFired {
		t.Fatal("a handle cancelled after 5000 pooled events still fired")
	}
	if len(e.heap.slab) != 102 {
		t.Fatalf("slab holds %d slots, want slot 0 and the high-water mark of 101", len(e.heap.slab))
	}
}

// TestCancelledTimersDoNotHoldTheSlab: a timer armed far ahead and
// stopped long before its deadline, as a handshake timeout is when the
// reply comes, does not keep its slot until that deadline: once the
// cancelled events outnumber the live ones the queue frees them. Arming
// and stopping 100,000 such timers beside one live event holds the slab
// at a handful of slots, and the live event still fires.
func TestCancelledTimersDoNotHoldTheSlab(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(time.Hour, func() { fired = true })
	for i := 0; i < 100_000; i++ {
		e.Cancel(e.Schedule(10*time.Second+Time(i), func() { t.Fatal("a cancelled timer fired") }))
	}
	if n := len(e.heap.slab); n > 4 {
		t.Fatalf("slab holds %d slots for one live event and stopped timers", n)
	}
	e.Run()
	if !fired || e.heap.len() != 0 || e.Processed != 1 {
		t.Fatalf("live event fired=%v, %d pending, %d processed", fired, e.heap.len(), e.Processed)
	}
}

// TestPostSteadyStateZeroAlloc: with the queue's slab at its
// high-water mark, posting and firing allocate nothing.
func TestPostSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	cycle := func() {
		for i := 0; i < 64; i++ {
			e.Post(e.Now()+Time(i%7), fn)
			e.PostReserved(e.Now()+Time(i%5), e.ReserveSeq(), fn)
		}
		e.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("Post/fire allocates %v per cycle at steady state, want 0", allocs)
	}
}

func TestPostPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Post(nil)", func() { NewEngine(1).Post(0, nil) })
	mustPanic("PostReserved in the past", func() {
		e := NewEngine(1)
		e.RunUntil(time.Second)
		e.PostReserved(time.Millisecond, e.ReserveSeq(), func() {})
	})
}

// TestQueueRejectsKeyBelowLastFired: the queue is monotone, so an event
// reserved before the last fired one may not enter at that same
// instant; PostReserved panics rather than let it fire out of order.
// The same seq at a later instant is fine.
func TestQueueRejectsKeyBelowLastFired(t *testing.T) {
	e := NewEngine(1)
	stale := e.ReserveSeq()
	e.Post(time.Millisecond, func() {})
	e.Post(2*time.Millisecond, func() {})
	if !e.Step() || e.Now() != time.Millisecond {
		t.Fatalf("first Step left the clock at %v, want 1ms", e.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PostReserved(now, stale seq) did not panic")
			}
		}()
		e.PostReserved(e.Now(), stale, func() {})
	}()
	fired := false
	e.PostReserved(e.Now()+time.Nanosecond, stale, func() { fired = true })
	e.Run()
	if !fired || e.heap.len() != 0 {
		t.Fatalf("stale seq at a later instant fired=%v, %d pending", fired, e.heap.len())
	}
}

// TestRunUntilDeadlineKeepsBase: RunUntil peeks at the event past its
// deadline without making it the queue's base, so an event the caller
// then schedules at now, below it, still fires first.
func TestRunUntilDeadlineKeepsBase(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.Schedule(time.Millisecond, func() { got = append(got, "early") })
	e.Schedule(time.Second, func() { got = append(got, "late") })
	e.RunUntil(500 * time.Millisecond)
	if e.heap.len() != 1 || e.Now() != 500*time.Millisecond {
		t.Fatalf("RunUntil left %d pending at %v, want 1 at 500ms", e.heap.len(), e.Now())
	}
	e.ScheduleAt(e.Now(), func() { got = append(got, "now") })
	e.PostReserved(e.Now(), e.ReserveSeq(), func() { got = append(got, "reserved") })
	e.Run()
	if want := "early now reserved late"; fmt.Sprint(got) != "["+want+"]" {
		t.Fatalf("fire order %v, want [%s]", got, want)
	}
}

// TestCancelledEventIsNotLastFired: a cancelled event leaves the queue
// without becoming the base, so after Run drains one past the clock, an
// event scheduled between the two still enters and fires.
func TestCancelledEventIsNotLastFired(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Millisecond, func() {})
	e.Cancel(e.Schedule(time.Second, func() {}))
	e.Run()
	if e.Now() != time.Millisecond {
		t.Fatalf("Now = %v after a cancelled tail, want the last fired 1ms", e.Now())
	}
	fired := 0
	e.PostReserved(e.Now()+time.Millisecond, e.ReserveSeq(), func() { fired++ })
	e.Post(e.Now(), func() { fired++ })
	e.Run()
	if fired != 2 {
		t.Fatalf("%d of 2 events fired after a cancelled tail", fired)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if e.heap.len() > 10000 {
			e.Run()
		}
	}
	e.Run()
}
