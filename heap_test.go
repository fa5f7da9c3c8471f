package aitf

import (
	"runtime"
	"testing"
)

// TestHeapPerZombie deploys a 20,000-zombie many-to-one army and reads
// the heap it keeps live, per zombie: its host, its gateway, their two
// netsim nodes and links, and its share of the topology and routes. A
// gateway that has handled no control message holds no tables or
// control state. Like the benchmark's mem_mb it reads HeapInuse after
// GC.
func TestHeapPerZombie(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap readings")
	}
	if testing.Short() {
		t.Skip("deploys 20,000 zombies")
	}
	const (
		zombies = 20_000
		budget  = 4608 // bytes of live heap per zombie
	)
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	opt := DefaultOptions()
	before := live()
	dep := DeployManyToOne(ManyToOneOptions{Options: opt, Attackers: zombies, Legit: 4})
	after := live()
	runtime.KeepAlive(dep)
	per := float64(int64(after)-int64(before)) / zombies
	t.Logf("%d zombies: %.0f B of live heap per zombie (budget %d)", zombies, per, budget)
	if per > budget {
		t.Fatalf("%.0f B of live heap per zombie, budget %d", per, budget)
	}
}
