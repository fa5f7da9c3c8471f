// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock. Events are closures scheduled at
// absolute virtual times; ties are broken by scheduling order so that a
// run is fully reproducible for a given seed. All AITF protocol timing
// experiments (Td, Tr, Ttmp, T interplay) run on this engine.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Event is a scheduled closure, in one of two forms.
//
// Schedule and ScheduleAt return the Event as a handle: the caller may
// keep it and Cancel it at any time, long after it fired. Such an Event
// is allocated per call and never reused, because a recycled one would
// let a stale handle cancel whatever unrelated callback the engine had
// put in it since.
//
// Post and PostReserved hand out no handle, so nothing outside the
// engine can hold the Event: it comes from the engine's free list and
// goes back to it the moment it fires, before its callback runs. This
// is the form for the per-packet and per-tick work (link deliveries,
// flood ticks) that is never cancelled.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	pooled    bool // handle-less: back to Engine.free when it fires
}

// At reports the virtual time at which the event fires.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.cancelled = true
	}
}

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancelled }

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all protocol code runs inside event callbacks.
//
// Events fire in (at, seq) order, and the queue is monotone: no event
// may enter it below the last one fired. Schedule, ScheduleAt and Post
// keep that by construction — they take a fresh seq, above every seq
// handed out, at a time no earlier than now. PostReserved enters an
// event under a seq taken earlier, so at the instant now it could fall
// below the last fired event; that is a misuse and panics, like a
// PostReserved in the past. A cancelled event leaves the queue without
// counting as fired.
type Engine struct {
	now     Time
	seq     uint64
	free    []*Event // fired handle-less events, reused by post
	rng     *rand.Rand
	stopped bool

	// Processed counts events that have fired since construction.
	Processed uint64

	// queue comes last: its bucket arrays' headers fill kilobytes, and
	// the fields above are read with its own on every step.
	queue eventHeap
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed always yields the same event interleaving.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after delay d. A negative delay is treated as zero.
// The returned Event may be used to cancel the callback.
func (e *Engine) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now+d, fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to the present.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	if at < e.now {
		at = e.now
	}
	ev := &Event{at: at, seq: e.seq, fn: fn}
	e.seq++
	e.queue.push(ev)
	return ev
}

// Post runs fn at absolute virtual time at, like ScheduleAt, but hands
// out no handle: the event cannot be cancelled and is recycled when it
// fires.
//
// aitf:noalloc
func (e *Engine) Post(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.post(at, e.ReserveSeq(), fn)
}

// ReserveSeq takes the tie-break position the next Schedule, ScheduleAt
// or Post would take, for an event PostReserved enters later. A link
// reserves one per packet at send time but keeps only its earliest
// arrival in the queue; the rest enter as the ones ahead of them fire,
// and still fire in the order of their sends.
//
// aitf:noalloc
func (e *Engine) ReserveSeq() uint64 {
	seq := e.seq
	e.seq++
	return seq
}

// PostReserved is Post under a seq from ReserveSeq. at must not be in
// the past, and at the instant now seq must not be below that of the
// last event fired: a reserved event is ordered by the (at, seq) fixed
// when the seq was taken, clamping would reorder it, and the queue
// takes no key below the last one fired. Either misuse panics.
//
// aitf:noalloc
func (e *Engine) PostReserved(at Time, seq uint64, fn func()) {
	if at < e.now {
		misuse("sim: PostReserved in the past")
	}
	if e.queue.below(at, seq) {
		misuse("sim: PostReserved below the last fired event")
	}
	e.post(at, seq, fn)
}

// post queues a pooled event under the given order key.
//
// aitf:noalloc
func (e *Engine) post(at Time, seq uint64, fn func()) {
	if fn == nil {
		misuse("sim: Post with nil callback")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = newPooledEvent()
	}
	ev.at, ev.seq, ev.fn = at, seq, fn
	e.queue.push(ev)
}

// newPooledEvent grows the pool by one; the free list's high-water mark
// is the most handle-less events ever pending at once. Like misuse it
// stays out of line, so the allocation gate on the posting functions
// sees only their steady-state path.
//
//go:noinline
func newPooledEvent() *Event { return &Event{pooled: true} }

//go:noinline
func misuse(msg string) { panic(msg) }

// step fires the earliest queued event, reporting false for a
// cancelled one, which leaves the queue without counting as fired. A
// pooled event is recycled before its callback runs, so the callback's
// own Post reuses it. Caller checks the queue is non-empty.
//
// aitf:noalloc
func (e *Engine) step() bool {
	ev := e.queue.peek()
	if ev.cancelled {
		e.queue.discard()
		return false
	}
	e.queue.pop()
	e.now = ev.at
	e.Processed++
	fn := ev.fn
	if ev.pooled {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
	fn()
	return true
}

// Stop makes Run/RunUntil return before dispatching the next event.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of events still queued (including
// cancelled events that have not yet been popped). A netsim link keeps
// only its earliest in-flight packet queued, so for network traffic
// this counts busy links, not packets in flight.
func (e *Engine) Pending() int { return e.queue.len() }

// RunUntil dispatches events in timestamp order until the queue is
// empty, Stop is called, or the next event is strictly after deadline.
// The clock is left at min(deadline, time of last fired event); if the
// queue empties early the clock still advances to deadline so that
// measurements cover the full window.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for e.queue.len() > 0 && !e.stopped {
		if e.queue.peek().at > deadline {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// Run dispatches every queued event (including events scheduled by
// other events) until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for e.queue.len() > 0 && !e.stopped {
		e.step()
	}
}

// Step fires exactly one event, returning false if the queue was empty.
func (e *Engine) Step() bool {
	for e.queue.len() > 0 {
		if e.step() {
			return true
		}
	}
	return false
}

func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v pending=%d processed=%d}", e.now, e.queue.len(), e.Processed)
}
