package wire

// The cluster overlay lives in the detection plane (cluster.Plane);
// the wire runtime supplies only the merge-round timer.

import "time"

// armClusterMerge starts the recurring merge round on the gateway's
// clock. Each firing re-arms the next, until Close stops the clock.
// Called under mu.
func (g *Gateway) armClusterMerge() {
	if every := g.plane.MergeEvery(); every > 0 {
		g.clock.Arm(time.Duration(every), g.merge)
	}
}

func (g *Gateway) mergeRound() {
	g.plane.MergeRound(wallNow())
	g.armClusterMerge()
}
