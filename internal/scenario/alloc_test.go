package scenario

import (
	"runtime"
	"testing"
)

// TestScenarioAllocBudget runs a fixed range of generated scenarios
// after a warm-up and fails when they allocate more bytes per scenario
// than the budget. Nothing stays live between scenarios, so what a
// scenario allocates is what it costs; this is the benchmark's
// sim_scenarios mem_mb, over fewer seeds.
func TestScenarioAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation readings are meaningless under the race detector")
	}
	const (
		warm, from, to = 25, 26, 126
		budget         = 503_000 // bytes allocated per scenario
	)
	for s := int64(1); s <= warm; s++ {
		Run(GenSpec(s))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := int64(from); s < to; s++ {
		Run(GenSpec(s))
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / (to - from)
	t.Logf("seeds %d..%d: %d B allocated per scenario (budget %d)", from, to-1, per, budget)
	if per > budget {
		t.Fatalf("%d B allocated per scenario, budget %d", per, budget)
	}
}
