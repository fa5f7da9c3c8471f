package aitf

import (
	"testing"
	"time"

	"aitf/internal/attack"
)

// TestArmyExactCounts pins the simulated outcome of the sim_army
// benchmark workload at seed 1: the same deployment (500 compliant
// zombies at 200 kB/s each, staggered over 2 s, and 4 legitimate
// clients at 15 kB/s) advanced the same way (10 ms slices up to 10 s of
// virtual time). A change that only claims speed must leave the events
// fired, the bytes the victim received and the filters installed at the
// attackers' gateways exactly as they are; the benchmark checks them
// only when it runs.
func TestArmyExactCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("fires 3.2M events; the race detector makes that minutes")
	}
	if testing.Short() {
		t.Skip("fires 3.2M events")
	}
	const (
		events      = 3240018
		victimBytes = 11862000
		filters     = 159
	)
	opt := DefaultOptions()
	opt.Seed = 1
	dep := DeployManyToOne(ManyToOneOptions{Options: opt, Attackers: 500, Legit: 4, AttackersCompliant: true})
	army := &attack.Army{
		Zombies: dep.Attackers, Dst: dep.Victim.Node().Addr(),
		RatePerZombie: 200_000, PacketSize: 1000,
		Stagger: 2 * time.Second,
	}
	army.Launch()
	for _, l := range dep.Legit {
		dep.Flood(l, dep.Victim, 15_000).Launch()
	}
	for dep.Now() < 10*time.Second {
		dep.Run(10 * time.Millisecond)
	}
	var installed uint64
	for _, g := range dep.AttackGWs {
		installed += g.Filters().Stats().Installed
	}
	got := [3]uint64{dep.Engine.Processed, dep.Victim.Stats().BytesReceived, installed}
	if want := [3]uint64{events, victimBytes, filters}; got != want {
		t.Fatalf("sim.events, core.victim_bytes, core.filters_installed = %v, want %v", got, want)
	}
}
