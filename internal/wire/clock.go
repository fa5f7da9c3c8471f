package wire

import (
	"sync"
	"time"

	"aitf/internal/sim"
)

// clock is a gateway's timers: a sim.Queue on wallNow, and one driver
// goroutine that sleeps on one time.Timer set to the earliest deadline
// and fires what is due under the owner's lock, under which Arm and
// Stop run too. An arm costs a queue slot, no goroutine, runtime timer
// or closure. The queue is monotone, so a deadline below the instant it
// last fired up to (a negative delay) is clamped to that instant. This
// is the one file of the package that starts a runtime timer.
type clock struct {
	mu     *sync.Mutex // the owner's: guards q, wakeAt and closed
	q      sim.Queue
	wakeAt sim.Time // wake's deadline, maxTime while nothing is due
	closed bool
	wake   *time.Timer
	exited chan struct{} // closed by the driver as it returns
}

const maxTime = sim.Time(1<<63 - 1)

func newClock(mu *sync.Mutex) *clock {
	c := &clock{mu: mu, wakeAt: maxTime, wake: time.NewTimer(maxTime), exited: make(chan struct{})}
	go c.drive()
	return c
}

func (c *clock) Now() time.Duration { return wallNow() }

// Arm implements ctrl.Clock; after Close it arms nothing.
//
// aitf:noalloc
func (c *clock) Arm(d time.Duration, fn func()) sim.Timer {
	if c.closed {
		return sim.Timer{}
	}
	at := wallNow() + d
	if at < c.wakeAt {
		c.wakeAt = at
		c.wake.Reset(d)
	}
	return c.q.ScheduleAt(at, fn)
}

// Stop implements ctrl.Clock.
//
// aitf:noalloc
func (c *clock) Stop(t sim.Timer) { c.q.Cancel(t) }

func (c *clock) drive() {
	defer close(c.exited)
	for range c.wake.C {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.q.RunUntil(wallNow())
		c.wakeAt = maxTime
		if at, ok := c.q.Next(); ok {
			c.wakeAt = at
			c.wake.Reset(at - wallNow())
		}
		c.mu.Unlock()
	}
}

// Close drops the queue and returns once the driver has: no callback
// runs after it. Call it without the owner's lock.
func (c *clock) Close() {
	c.mu.Lock()
	c.closed, c.q = true, sim.Queue{}
	c.wake.Reset(0)
	c.mu.Unlock()
	<-c.exited
}
