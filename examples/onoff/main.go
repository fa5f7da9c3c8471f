// On-off: a pulsing ("on-off") attacker tries to exploit the
// temporary-filter window — flooding, pausing until the victim's
// gateway removes its Ttmp filter, then flooding again. The DRAM
// shadow cache catches every reappearance (paper §II-B); this example
// runs the same attack against all three reappearance-handling modes.
package main

import (
	"fmt"
	"time"

	"aitf"
)

func main() {
	fmt.Println("pulsing 10 Mbit/s flood, a_gw1 non-cooperative, 30 s horizon")
	fmt.Printf("%-15s %12s %12s %14s\n", "shadow mode", "leak (KB)", "escalations", "blocked at")
	for _, mode := range []aitf.ShadowMode{aitf.VictimDriven, aitf.GatewayAuto, aitf.ShadowOff} {
		opt := aitf.DefaultOptions()
		opt.ShadowMode = mode
		dep := aitf.DeployChain(aitf.ChainOptions{
			Options:        opt,
			Depth:          3,
			NonCooperative: map[int]bool{0: true},
		})
		flood := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
		flood.On = 300 * time.Millisecond
		flood.Off = time.Second // outlives Ttmp: the filter has lapsed when the flood resumes
		flood.Launch()
		dep.Run(30 * time.Second)

		blocked := "never"
		if e, ok := dep.Log.First(aitf.EvFilterInstalled); ok {
			blocked = fmt.Sprintf("%s @%v", e.Node, e.At.Truncate(time.Millisecond))
		}
		fmt.Printf("%-15s %12.1f %12d %14s\n",
			mode, float64(dep.Victim.Meter.Bytes)/1e3,
			dep.Log.Count(aitf.EvEscalated), blocked)
	}
	fmt.Println("\nwithout the shadow cache every burst is treated as a brand-new attack")
	fmt.Println("and leaks for a detection+request cycle, forever; with it, the gateway")
	fmt.Println("escalates past the non-cooperative a_gw1 and the flow is pinned at a_gw2.")
}
