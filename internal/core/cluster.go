package core

// The cluster overlay lives in the detection plane (cluster.Plane);
// the simulator supplies only the merge-round timer.

import "aitf/internal/cluster"

// Cluster exposes the gateway's cluster overlay (nil when disabled).
func (g *Gateway) Cluster() *cluster.Cluster { return g.plane.Cluster() }

// armClusterMerge schedules the recurring merge round. Armed once at
// Attach; each firing re-arms the next, and a halted gateway lets the
// chain die.
func (g *Gateway) armClusterMerge() {
	if every := g.plane.MergeEvery(); every > 0 {
		g.node.Engine().Schedule(every, func() {
			if g.halted {
				return
			}
			g.plane.MergeRound(g.now())
			g.armClusterMerge()
		})
	}
}

// KillReplica kills one logical replica mid-run (cluster.Plane.KillReplica).
func (g *Gateway) KillReplica(id int) (inherited, lost int, ok bool) {
	return g.plane.KillReplica(id, g.now())
}
