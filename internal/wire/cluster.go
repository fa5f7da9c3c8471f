package wire

// Gateway-cluster integration for the wire runtime: the
// internal/cluster overlay rides on one UDP gateway as k logical
// replicas. Observations route to each flow's owning replica, filter
// mutations append to the replicated log, and a self-re-arming wall
// clock ticker drives the merge rounds the simulator schedules in
// virtual time. The dataplane stays the sole packet-verdict fast path
// — killing a logical replica loses its detection slice and (without
// replication) its filter-log view, never an installed filter.

import (
	"fmt"
	"time"

	"aitf/internal/cluster"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/sim"
)

// Cluster exposes the gateway's cluster overlay (nil when disabled).
func (g *Gateway) Cluster() *cluster.Cluster { return g.clu }

// observeTuple routes one delivered packet to the detection plane: the
// owning cluster replica when clustering is on, the single engine
// otherwise. Both planes are internally synchronized, so the receive
// goroutine lands here without g.mu.
func (g *Gateway) observeTuple(now sim.Time, tup flow.Tuple, payload int) (detect.Detection, bool) {
	if g.clu != nil {
		return g.clu.Observe(now, tup, payload)
	}
	if g.det != nil {
		return g.det.ObserveTuple(now, tup, payload)
	}
	return detect.Detection{}, false
}

// clusterRecord appends one filter op to the replicated log; a no-op
// without a cluster. The cluster takes its own lock, never g.mu, so
// calling under g.mu cannot deadlock.
func (g *Gateway) clusterRecord(kind cluster.OpKind, label flow.Label, exp, now sim.Time) {
	if g.clu != nil {
		g.clu.Record(kind, label, exp, now)
	}
}

// armClusterMerge starts the recurring merge round on the gateway's
// timer wheel. Each firing re-arms the next; Close flips g.closed
// before stopAll, so a firing that races shutdown cannot re-arm a
// timer behind the stopped set.
func (g *Gateway) armClusterMerge() {
	if g.clu == nil {
		return
	}
	interval := time.Duration(g.clu.Config().MergeInterval())
	g.timers.after(interval, func() {
		if g.closed.Load() {
			return
		}
		if fresh := g.clu.MergeRound(wallNow()); fresh > 0 {
			g.event(obs.EvClusterMerge, flow.Label{},
				fmt.Sprintf("%d merged detections pending", fresh))
		}
		g.armClusterMerge()
	})
}

// KillReplica kills one logical replica mid-run: its detection slice
// is lost (the last published summary keeps feeding the merged view
// for one window) and its flows reassign to the survivors. Reports how
// many of its live filters the survivors inherited vs lost.
func (g *Gateway) KillReplica(id int) (inherited, lost int, ok bool) {
	if g.clu == nil {
		return 0, 0, false
	}
	inherited, lost, ok = g.clu.KillReplica(id, wallNow())
	if ok {
		g.event(obs.EvReplicaKilled, flow.Label{},
			fmt.Sprintf("replica %d: %d filters inherited, %d lost", id, inherited, lost))
	}
	return inherited, lost, ok
}
