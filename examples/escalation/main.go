// Escalation: the attacker's gateway (and optionally its whole
// provider chain) refuses to cooperate. AITF escalates round by round
// — each round involving only four nodes — until a cooperative
// gateway blocks the flow or the peering link is cut (paper §II-D).
package main

import (
	"flag"
	"fmt"
	"time"

	"aitf"
)

func main() {
	nonCoop := flag.Int("noncoop", 3, "number of non-cooperative attacker-side gateways (0..3)")
	flag.Parse()

	opt := aitf.DefaultOptions()
	chain := aitf.ChainOptions{
		Options:        opt,
		Depth:          3,
		NonCooperative: map[int]bool{},
	}
	for i := 0; i < *nonCoop && i < 3; i++ {
		chain.NonCooperative[i] = true
	}
	dep := aitf.DeployChain(chain)

	flood := dep.Flood(dep.Attacker, dep.Victim, 1.25e6)
	flood.Launch()
	dep.Run(15 * time.Second)

	fmt.Printf("attacker-side gateways refusing to cooperate: %d of 3\n\n", *nonCoop)
	fmt.Println("== protocol timeline ==")
	fmt.Print(dep.Log)

	fmt.Println("\n== outcome ==")
	fmt.Printf("rounds used: %d\n", 1+dep.Log.Count(aitf.EvEscalated))
	if e, ok := dep.Log.First(aitf.EvFilterInstalled); ok {
		fmt.Printf("flow finally blocked at %s (t=%v)\n", e.Node, e.At.Truncate(time.Millisecond))
	} else if e, ok := dep.Log.First(aitf.EvDisconnected); ok {
		fmt.Printf("no cooperative gateway found: %s cut the peering link (t=%v)\n",
			e.Node, e.At.Truncate(time.Millisecond))
	}
	fmt.Printf("victim leak: %.1f KB of a %.1f MB offered flood\n",
		float64(dep.Victim.Meter.Bytes)/1e3, 1.25*dep.Now().Seconds())
}
