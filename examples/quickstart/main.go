// Quickstart: deploy the paper's Figure-1 topology, flood the victim
// with a 10 Mbit/s attack, and watch AITF push a filter to the
// attacker's gateway within one round.
package main

import (
	"fmt"
	"time"

	"aitf"
)

func main() {
	// Figure 1: G_host — G_gw1 — G_gw2 — G_gw3 — B_gw3 — B_gw2 — B_gw1 — B_host.
	// All gateways cooperate; the attacker ignores stop orders.
	dep := aitf.DeployFigure1(aitf.DefaultOptions())

	// B_host floods G_host at 10 Mbit/s — enough to saturate the
	// victim's tail circuit.
	flood := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
	flood.Launch()

	// Five seconds of virtual time are ample for the whole round.
	dep.Run(5 * time.Second)

	fmt.Println("== protocol timeline ==")
	fmt.Print(dep.Log)

	horizon := dep.Now()
	eff := dep.Victim.Meter.BandwidthOver(horizon)
	fmt.Println("\n== outcome ==")
	fmt.Printf("attack bandwidth:      1.25 MB/s for %v\n", horizon)
	fmt.Printf("victim received:       %.1f KB total\n", float64(dep.Victim.Meter.Bytes)/1e3)
	fmt.Printf("effective bandwidth:   %.2f KB/s (reduction factor %.2e)\n", eff/1e3, eff/1.25e6)
	if e, ok := dep.Log.First(aitf.EvFilterInstalled); ok {
		fmt.Printf("filter installed at:   %s, t=%v (the AITF node closest to the attacker)\n",
			e.Node, e.At.Truncate(time.Millisecond))
	}
	fmt.Printf("attacker disconnected: %v\n", dep.Log.Count(aitf.EvDisconnected) > 0)
}
