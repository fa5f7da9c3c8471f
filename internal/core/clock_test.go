//go:build !race

package core

import (
	"testing"
	"time"

	"aitf/internal/ctrl"
	"aitf/internal/sim"
)

// TestSimClockArmZeroAlloc: once the engine's queue has held as many
// timers as are armed at once, arming and stopping one through the
// control plane's ctrl.Clock allocates nothing: the handle is a value
// and the callback is bound once, not built per arm. Each cycle arms
// 100,000 timers, stops them all, and runs the engine, which sweeps the
// cancelled ones out. (The race detector's instrumentation allocates,
// so this file is built without it.)
func TestSimClockArmZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	var clk ctrl.Clock = simClock{eng}
	const n = 100_000
	ts := make([]sim.Timer, n)
	fn := func() { t.Error("a stopped timer fired") }
	cycle := func() {
		for i := range ts {
			ts[i] = clk.Arm(time.Duration(i)*time.Microsecond, fn)
		}
		for _, tm := range ts {
			clk.Stop(tm)
		}
		eng.Run()
		if eng.Processed != 0 {
			t.Errorf("%d stopped timers fired", eng.Processed)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("arming and stopping %d timers allocates %v times at steady state, want 0", n, allocs)
	}
}
