package wire

import "time"

// Fixture: the clock driver is the one file that starts a timer.
func Driver() *time.Timer {
	return time.NewTimer(time.Second)
}
