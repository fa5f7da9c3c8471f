// Package sim provides a deterministic discrete-event simulation engine
// and the timer queue under it.
//
// The engine owns a virtual clock. Events are callbacks scheduled at
// absolute virtual times; ties are broken by scheduling order so that a
// run is fully reproducible for a given seed. All AITF protocol timing
// experiments (Td, Tr, Ttmp, T interplay) run on this engine.
//
// Its queue, Queue, is the one timer queue of both runtimes: the
// engine runs it on virtual time, and the daemon (package wire) runs
// one per gateway under a wall-clock driver. Arming a timer takes a
// slot of the queue's slab and returns a value handle, so once the
// slab has held as many events as are pending it allocates nothing.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Timer is the handle ScheduleAt and Schedule return for a callback:
// its slot in the queue and the slot's generation when it was armed.
// The caller may keep it and Cancel through it at any time, long after
// it fired. A slot's generation moves on when the slot is freed, so a
// handle whose event fired or was cancelled matches nothing, and
// cancelling through it touches no later event on its slot; nor does
// the zero Timer. (The generation steps by two, so a handle kept
// across 2³¹ reuses of its slot could match again; no caller keeps one
// past the record it belongs to.)
//
// Post and PostReserved hand out no handle. They are the form for the
// per-packet and per-tick work (link deliveries, flood ticks) that is
// never cancelled.
type Timer struct {
	slot int32
	gen  uint32
}

// Queue is a monotone timer queue. Callbacks fire in (at, seq) order,
// seq being the order they were armed in, so ties replay. Now is its
// floor: the time of the last event fired, or the deadline RunUntil
// last reached. An event armed below it is clamped to it, because the
// radix heap takes no key below the last one fired.
//
// The zero Queue is empty and ready. It is not safe for concurrent
// use: the engine runs it from its event loop, the daemon's clock under
// the gateway's lock.
type Queue struct {
	now Time
	seq uint64
	// heap comes last: its bucket heads fill half a kilobyte, and the
	// fields above are read with its own on every step.
	heap eventHeap
}

// Now returns the queue's floor (see Queue).
func (q *Queue) Now() Time { return q.now }

// ScheduleAt runs fn at absolute time at, clamped to Now. The returned
// handle cancels it.
//
// aitf:noalloc
func (q *Queue) ScheduleAt(at Time, fn func()) Timer {
	if fn == nil {
		misuse("sim: ScheduleAt with nil callback")
	}
	if at < q.now {
		at = q.now
	}
	t := q.heap.push(at, q.seq, fn)
	q.seq++
	return t
}

// Cancel prevents t's callback from firing and lets go of it. A stale
// handle, whose event has fired or been cancelled, and the zero Timer
// are no-ops.
//
// aitf:noalloc
func (q *Queue) Cancel(t Timer) { q.heap.cancel(t) }

// Next returns the time of the earliest event still to fire, freeing
// the cancelled ones ahead of it, and false when none is pending.
func (q *Queue) Next() (Time, bool) {
	if s := q.heap.peek(); s != nil {
		return s.at, true
	}
	return 0, false
}

// RunUntil fires, in order, every event due at or before deadline,
// those the callbacks arm included, and then raises Now to deadline.
func (q *Queue) RunUntil(deadline Time) {
	for s := q.heap.peek(); s != nil && s.at <= deadline; s = q.heap.peek() {
		q.fire(s)()
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// fire pops s, the slot peek returned, makes its time Now and returns
// its callback. The slot is free before the callback runs, so the
// callback's own arm reuses it.
//
// aitf:noalloc
func (q *Queue) fire(s *slot) func() {
	q.now = s.at
	return q.heap.pop()
}

// Engine is a single-threaded discrete-event scheduler: a Queue on
// virtual time, with a seeded random source. It is not safe for
// concurrent use; all protocol code runs inside event callbacks.
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
	rng *rand.Rand

	// Processed counts events that have fired since construction.
	Processed uint64

	// Queue holds the virtual clock (Now) and the events; ScheduleAt
	// and Cancel are its.
	Queue
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed always yields the same event interleaving.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after delay d. A negative delay is treated as zero.
// The returned Timer cancels the callback.
//
// aitf:noalloc
func (e *Engine) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now+d, fn)
}

// Post runs fn at absolute virtual time at, like ScheduleAt, but hands
// out no handle: the event cannot be cancelled.
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
func (e *Engine) ReserveSeq() uint64 { return e.ReserveSeqs(1) }

// ReserveSeqs takes n consecutive positions at once and returns the
// first, for a source that fixes the order of a whole series of events
// up front and keeps only the next one queued.
//
// aitf:noalloc
func (e *Engine) ReserveSeqs(n uint64) uint64 {
	seq := e.seq
	e.seq += n
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
	if e.heap.below(at, seq) {
		misuse("sim: PostReserved below the last fired event")
	}
	e.post(at, seq, fn)
}

// post queues a handle-less event under the given order key.
//
// aitf:noalloc
func (e *Engine) post(at Time, seq uint64, fn func()) {
	if fn == nil {
		misuse("sim: Post with nil callback")
	}
	e.heap.push(at, seq, fn)
}

// misuse stays out of line, so the allocation gate on the posting
// functions sees only their steady-state path.
//
//go:noinline
func misuse(msg string) { panic(msg) }

// step fires s, the slot peek returned, counting it.
//
// aitf:noalloc
func (e *Engine) step(s *slot) {
	fn := e.fire(s)
	e.Processed++
	fn()
}

// RunUntil dispatches events in timestamp order until the queue is
// empty or the next event is strictly after deadline. The clock is left
// at min(deadline, time of last fired event); if the queue empties
// early the clock still advances to deadline so that measurements cover
// the full window.
func (e *Engine) RunUntil(deadline Time) {
	for {
		s := e.heap.peek()
		if s == nil || s.at > deadline {
			break
		}
		e.step(s)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run dispatches every queued event (including events scheduled by
// other events) until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Step fires exactly one event, returning false if none was pending.
func (e *Engine) Step() bool {
	s := e.heap.peek()
	if s == nil {
		return false
	}
	e.step(s)
	return true
}

func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v pending=%d processed=%d}", e.now, e.heap.len(), e.Processed)
}
