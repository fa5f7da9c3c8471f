package cluster

import (
	"fmt"

	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/sim"
)

// Plane is the one detection plane a gateway holds, in either runtime:
// the protected destinations plus one detect.Engine or one Cluster, so
// no caller knows whether detection is clustered. Its fields never
// change after NewPlane, and the engine and the cluster lock
// themselves, so any goroutine may call it without the gateway's lock.
type Plane struct {
	protected map[flow.Addr]bool // nil when detection is unarmed
	eng       *detect.Engine     // nil with a cluster or unarmed
	clu       *Cluster           // nil when clustering is off
	trace     func(obs.EventKind, flow.Label, string)
}

// NewPlane arms detection when det is enabled and protected non-empty.
// An enabled cfg shards it across replicas (and, armed or not, runs the
// replicated filter log); trace receives the merge and kill events.
func NewPlane(det detect.Config, protected []flow.Addr, cfg Config,
	trace func(obs.EventKind, flow.Label, string)) *Plane {
	p := &Plane{trace: trace}
	if det.Enabled() && len(protected) > 0 {
		p.protected = make(map[flow.Addr]bool, len(protected))
		for _, a := range protected {
			p.protected[a] = true
		}
	} else {
		det = detect.Config{}
	}
	switch {
	case cfg.Enabled():
		p.clu = New(cfg, det)
	case p.protected != nil:
		p.eng = detect.New(det)
	}
	return p
}

// Defends reports whether detection is armed, i.e. whether the gateway
// files requests itself on behalf of protected legacy clients.
func (p *Plane) Defends() bool { return p.protected != nil }

// Protects reports whether traffic toward dst feeds detection: a map
// lookup the data paths ask before they read the clock.
func (p *Plane) Protects(dst flow.Addr) bool { return p.protected[dst] }

// Engine is the single detection engine (nil with a cluster or unarmed).
func (p *Plane) Engine() *detect.Engine { return p.eng }

// Cluster is the cluster overlay (nil when clustering is off).
func (p *Plane) Cluster() *Cluster { return p.clu }

// Observe feeds one delivered packet to the plane: the flow's owning
// replica with a cluster, the single engine otherwise.
//
// aitf:noalloc
func (p *Plane) Observe(now sim.Time, tup flow.Tuple, payload int) (detect.Detection, bool) {
	if p.clu != nil {
		return p.clu.Observe(now, tup, payload)
	}
	if p.eng != nil {
		return p.eng.ObserveTuple(now, tup, payload)
	}
	return detect.Detection{}, false
}

// Record appends one filter op to the replicated log, if there is one.
func (p *Plane) Record(kind OpKind, label flow.Label, exp, now sim.Time) {
	if p.clu != nil {
		p.clu.Record(kind, label, exp, now)
	}
}

// MergeEvery is the merge-round period, 0 without a cluster.
func (p *Plane) MergeEvery() sim.Time {
	if p.clu == nil {
		return 0
	}
	return p.clu.Config().MergeInterval()
}

// MergeRound runs one cluster merge round, tracing the merged-view
// detections it parks, and returns their number.
func (p *Plane) MergeRound(now sim.Time) int {
	if p.clu == nil {
		return 0
	}
	fresh := p.clu.MergeRound(now)
	if fresh > 0 {
		p.trace(obs.EvClusterMerge, flow.Label{}, fmt.Sprintf("%d merged detections pending", fresh))
	}
	return fresh
}

// KillReplica kills one logical replica mid-run (Cluster.KillReplica),
// tracing the filters the survivors inherited and lost.
func (p *Plane) KillReplica(id int, now sim.Time) (inherited, lost int, ok bool) {
	if p.clu == nil {
		return 0, 0, false
	}
	inherited, lost, ok = p.clu.KillReplica(id, now)
	if ok {
		p.trace(obs.EvReplicaKilled, flow.Label{},
			fmt.Sprintf("replica %d: %d filters inherited, %d lost", id, inherited, lost))
	}
	return inherited, lost, ok
}

// ExportState is the cluster's durable state, nil without a cluster.
func (p *Plane) ExportState() *State {
	if p.clu == nil {
		return nil
	}
	return p.clu.ExportState()
}

// ImportState restores an ExportState; a no-op without a cluster.
func (p *Plane) ImportState(st *State, now sim.Time) {
	if p.clu != nil {
		p.clu.ImportState(st, now)
	}
}

// Window is the effective detection window, zero when detection is
// unarmed (the allocator then prices by covered addresses alone).
func (p *Plane) Window() sim.Time {
	switch {
	case p.clu != nil:
		return p.clu.DetectionWindow()
	case p.eng != nil:
		return p.eng.Config().Window
	}
	return 0
}

// Pairs implements alloc.Traffic: the engine's heavy-hitter snapshot,
// or the union of the cluster's replicas.
func (p *Plane) Pairs(visit func(src, dst flow.Addr, bytes uint64, flagged bool)) {
	switch {
	case p.clu != nil:
		p.clu.Pairs(visit)
	case p.eng != nil:
		for _, h := range p.eng.TopK() {
			visit(h.Src, h.Dst, h.Bytes, h.Flagged)
		}
	}
}

// BaselineBps implements alloc.Traffic: the destination's EWMA
// bandwidth (the largest per-replica one with a cluster).
func (p *Plane) BaselineBps(dst flow.Addr) float64 {
	switch {
	case p.clu != nil:
		return p.clu.BaselineBps(dst)
	case p.eng != nil:
		return p.eng.Baseline(dst)
	}
	return 0
}

// Instrument registers the engine's aitf_detect_* counters or the
// cluster's aitf_cluster_* instruments into r, all read at scrape time.
// Call at most once per registry.
func (p *Plane) Instrument(r *obs.Registry) {
	if p.eng != nil {
		p.eng.Instrument(r)
	}
	clu := p.clu
	if clu == nil {
		return
	}
	r.GaugeFunc("aitf_cluster_log_length",
		"Replicated filter-log length (ops retained).",
		func() float64 { return float64(clu.LogLen()) })
	r.CounterFunc("aitf_cluster_merge_rounds_total",
		"Cluster merge rounds run (sketch exchange + log shipping).",
		func() uint64 { return clu.Stats().MergeRounds })
	r.CounterFunc("aitf_cluster_merge_bytes_total",
		"Estimated replication traffic exchanged by merge rounds.",
		func() uint64 { return clu.Stats().MergeBytes })
	r.CounterFunc("aitf_cluster_failovers_total",
		"Replica deaths absorbed by consistent-hash reassignment.",
		func() uint64 { return clu.Stats().Failovers })
	r.CounterFunc("aitf_cluster_catchup_ops_total",
		"Log ops replayed into survivors during failover catch-up.",
		func() uint64 { return clu.Stats().CatchupOps })
	r.CounterFunc("aitf_cluster_catchup_ns_total",
		"Wall-clock nanoseconds spent in failover catch-up.",
		func() uint64 { return clu.Stats().CatchupNanos })
	r.CounterFunc("aitf_cluster_detections_total",
		"Detections surfaced by the replicas, inline and merged-view alike.",
		func() uint64 { return clu.Stats().Detections })
	r.CounterFunc("aitf_cluster_merge_detections_total",
		"Threshold crossings only the merged detection view saw.",
		func() uint64 { return clu.Stats().MergeDetections })
}
