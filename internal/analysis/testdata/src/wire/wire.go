// Fixture: wire is an allowlisted package — real sockets and real
// clocks are its job, so its ambient inputs are not flagged. Its
// timers are: only its clock driver (clock.go) may start one.
package wire

import (
	"math/rand"
	"os"
	"time"
)

func Uptime(start time.Time) time.Duration {
	return time.Since(start)
}

func Jitter() time.Duration {
	return time.Duration(rand.Intn(1000)) * time.Millisecond
}

func ConfigPath() string {
	return os.Getenv("AITF_CONFIG")
}

func Retry(fn func()) *time.Timer {
	return time.AfterFunc(time.Second, fn) // want "runtime timer time.AfterFunc outside clock.go"
}

func Tick() <-chan time.Time {
	return time.NewTicker(time.Second).C // want "runtime timer time.NewTicker outside clock.go"
}

// Timer methods are not new timers.
func Rearm(t *time.Timer) bool {
	return t.Reset(time.Second)
}
