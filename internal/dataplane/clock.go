package dataplane

import (
	"time"

	"aitf/internal/filter"
)

// Clock supplies the engine's notion of "now" so the same classification
// code runs under the discrete-event simulator (virtual time) and the
// UDP wire runtime (wall time). filter.Time is a duration since an
// epoch in both cases.
type Clock interface {
	Now() filter.Time
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() filter.Time

// Now implements Clock.
func (f ClockFunc) Now() filter.Time { return f() }

// WallClock returns a monotonic wall clock anchored at epoch, matching
// the wire runtime's convention of durations since process start.
func WallClock(epoch time.Time) Clock {
	return ClockFunc(func() filter.Time { return time.Since(epoch) })
}
