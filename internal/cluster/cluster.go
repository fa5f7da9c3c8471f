// Package cluster turns k gateway replicas into one unit of survival.
//
// The paper assumes one AITF gateway per victim edge; production means
// a load-balanced cluster where any replica can die mid-attack without
// the victim losing protection. The cluster shards the flow space by
// rendezvous hashing over the (src, dst) pair: every flow has exactly
// one owning replica whose detection engine observes it, so per-flow
// state is never split (the precondition for the sound space-saving
// merge — see internal/detect/merge.go). Two mechanisms then make the
// cluster crash-proof:
//
//   - Detection state merges. Each merge round every alive replica
//     publishes a frozen copy of its summary and the cluster empties
//     and refills its merged view (each source contributes exactly once
//     per round, the discipline the no-FP bound needs). A dead
//     replica's last published summary keeps contributing until its
//     window lapses, so the replica that inherits its flows resumes
//     counting from the dead replica's tally instead of from zero: the
//     merged sweep crosses the threshold as soon as inherited + fresh
//     bytes do. Failover is a hash reassignment plus a sweep, not a
//     re-detection from zero.
//
//   - Filter state is a replicated log. Installs, aggregations,
//     removals and expirations append sequence-numbered ops; the
//     origin replica applies its own ops eagerly and peers catch up in
//     batches at every merge round (modelling log shipping at the merge
//     interval) and, crucially, at failover. A filter live on a dead
//     replica is therefore live on every survivor before its original
//     deadline — zero filters lost. With Replicate off each op stays
//     on its origin (modelling independent gateways, the E17 contrast
//     cell) and a crash loses the dead replica's filters.
//
// The cluster is a control-plane overlay: replicas are logical shards
// of one gateway process, so all methods lock one mutex and the host
// gateway's dataplane remains the sole packet-verdict fast path.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/sim"
)

// Config parameterises the cluster overlay on one gateway.
type Config struct {
	// Replicas is the number of logical gateway replicas; the cluster
	// is disabled below 2.
	Replicas int
	// MergeEvery is the interval between merge rounds (detection state
	// exchange + log shipping). Default 250ms, one detection window.
	MergeEvery sim.Time
	// HashSeed perturbs the rendezvous hash that assigns flows to
	// replicas.
	HashSeed uint64
	// Replicate enables the replicated filter log. Off, each replica
	// keeps only its own filters — the independent-gateways baseline
	// that loses filters on a crash.
	Replicate bool
}

// Enabled reports whether the configuration describes a real cluster.
func (c Config) Enabled() bool { return c.Replicas >= 2 }

// MergeInterval is the effective merge-round period.
func (c Config) MergeInterval() sim.Time {
	if c.MergeEvery > 0 {
		return c.MergeEvery
	}
	return 250 * time.Millisecond
}

// OpKind tags a replicated-log entry.
type OpKind uint8

const (
	// OpInstall records a filter install (temp or long-lived).
	OpInstall OpKind = iota
	// OpAggregate records an aggregate filter replacing children.
	OpAggregate
	// OpRemove records an explicit removal (aggregate split-back).
	OpRemove
	// OpExpire records a deadline-driven expiry.
	OpExpire
)

func (k OpKind) String() string {
	switch k {
	case OpInstall:
		return "install"
	case OpAggregate:
		return "aggregate"
	case OpRemove:
		return "remove"
	case OpExpire:
		return "expire"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one replicated-log entry. Seq is 1-based and dense; receivers
// dedup by comparing against their last applied sequence number.
type Op struct {
	Seq     uint64
	Kind    OpKind
	Label   flow.Label
	Expires sim.Time
	At      sim.Time
	// Origin is the replica that owned the triggering flow when the op
	// was appended. With Replicate off it bounds the op's scope.
	Origin int
}

// Stats are the cluster's lifetime counters. CatchupNanos is wall
// clock (the only non-virtual quantity here) and must never enter a
// determinism fingerprint.
type Stats struct {
	MergeRounds      uint64
	MergeBytes       uint64
	Failovers        uint64
	CatchupOps       uint64
	CatchupNanos     uint64
	FiltersInherited uint64
	FiltersLost      uint64
	// Detections counts detections surfaced through Observe — inline
	// ones and consumed merge-sweep ones alike.
	Detections uint64
	// MergeDetections counts threshold crossings only the merged view
	// saw (the failover-boost path).
	MergeDetections uint64
}

// replica is one logical shard: a primary detection engine over its
// hash slice, the frozen summary it published at the last merge round,
// and its view of the filter log.
type replica struct {
	id  int
	eng *detect.Engine // nil when detection is unarmed or the replica is dead
	// sum is the frozen copy published at the last merge round, built
	// together with eng. While the replica lives it is emptied and
	// refilled every round; once the replica dies nothing empties it
	// again, and a restart builds a new one.
	sum *detect.Engine
	// filters is the replica's applied view of the log: label → expiry.
	filters     map[flow.Label]sim.Time
	lastApplied uint64
	alive       bool
}

// State is the snapshot-portable part of a cluster: the full log plus
// per-replica liveness and log positions. Detection engines are
// volatile and legitimately lost across a restore — the merged sweep
// re-acquires attacks from live traffic.
type State struct {
	Ops         []Op
	Alive       []bool
	LastApplied []uint64
	Stats       Stats
}

// Cluster is the overlay. All methods are safe for concurrent use; the
// single mutex also serialises every engine merge (detect.Engine.Merge
// locks two engines, which is deadlock-free only under one caller).
type Cluster struct {
	mu      sync.Mutex
	cfg     Config
	detCfg  detect.Config
	armed   bool // detection engines exist
	ops     []Op
	reps    []*replica
	pending map[uint64]detect.Detection
	// view is the merged detection view, emptied at every merge round;
	// nil when detection is unarmed.
	view  *detect.Engine
	stats Stats
	// winEff is the effective (defaulted) detection window, zero when
	// detection is unarmed.
	winEff sim.Time
}

// New builds a cluster of cfg.Replicas logical replicas. Every replica
// shares det verbatim — identical geometry and seed are what make the
// summaries mergeable. A disabled det leaves detection unarmed (the
// log and failover still work).
func New(cfg Config, det detect.Config) *Cluster {
	n := cfg.Replicas
	if n < 1 {
		n = 1
	}
	c := &Cluster{
		cfg:     cfg,
		detCfg:  det,
		armed:   det.Enabled(),
		pending: map[uint64]detect.Detection{},
		reps:    make([]*replica, n),
	}
	for i := range c.reps {
		r := &replica{id: i, alive: true, filters: map[flow.Label]sim.Time{}}
		if c.armed {
			r.eng, r.sum = detect.New(det), detect.New(det)
		}
		c.reps[i] = r
	}
	if c.armed {
		c.view = detect.New(det)
		c.winEff = c.view.Config().Window
	}
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// DetectionWindow is the effective (defaulted) detection window, zero
// when detection is unarmed.
func (c *Cluster) DetectionWindow() sim.Time { return c.winEff }

// splitmix64 is the standard mixer (local copy; detect keeps its own
// unexported one).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func pairKey(src, dst flow.Addr) uint64 {
	return uint64(src)<<32 | uint64(dst)
}

// ownerOf picks the alive replica with the highest rendezvous weight
// for key, or -1 when no replica is alive. Rendezvous hashing gives
// the minimal-disruption property failover needs: killing a replica
// reassigns only that replica's flows. Caller holds c.mu.
func (c *Cluster) ownerOf(key uint64) int {
	best, bestW := -1, uint64(0)
	for i, r := range c.reps {
		if !r.alive {
			continue
		}
		w := splitmix64(key ^ c.cfg.HashSeed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
		if best < 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// Owner reports which replica owns the (src, dst) flow right now.
func (c *Cluster) Owner(src, dst flow.Addr) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ownerOf(pairKey(src, dst))
}

// Observe routes one packet observation to the flow's owning replica
// and surfaces detections: the owner's inline detection if it fires,
// otherwise a pending merged-sweep detection for this flow, if one is
// waiting. Pending detections are delivered on a packet arrival so the
// caller holds the packet's recorded path — the evidence a filtering
// request needs.
func (c *Cluster) Observe(now sim.Time, tup flow.Tuple, payload int) (detect.Detection, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := pairKey(tup.Src, tup.Dst)
	if o := c.ownerOf(key); o >= 0 && c.reps[o].eng != nil {
		if d, ok := c.reps[o].eng.ObserveTuple(now, tup, payload); ok {
			delete(c.pending, key) // inline beat the merged view
			c.stats.Detections++
			return d, true
		}
	}
	if d, ok := c.pending[key]; ok {
		delete(c.pending, key)
		c.stats.Detections++
		return d, true
	}
	return detect.Detection{}, false
}

// Record appends one filter op to the replicated log. The origin
// replica (the flow's current owner) applies it eagerly; peers catch
// up at the next merge round or at failover.
func (c *Cluster) Record(kind OpKind, label flow.Label, expires, now sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record(kind, label, expires, now, -1)
}

// record appends with an explicit origin (-1 = derive from ownership).
// Caller holds c.mu.
func (c *Cluster) record(kind OpKind, label flow.Label, expires, now sim.Time, origin int) {
	if origin < 0 {
		origin = c.ownerOf(pairKey(label.Src, label.Dst))
		if origin < 0 {
			return // no replica alive: nothing can apply it
		}
	}
	c.ops = append(c.ops, Op{
		Seq: uint64(len(c.ops)) + 1, Kind: kind, Label: label,
		Expires: expires, At: now, Origin: origin,
	})
	if r := c.reps[origin]; r.alive {
		c.applySince(r)
	}
}

// applySince advances r through the log tail it has not yet processed,
// mutating its filter view for every op in scope (all ops when
// Replicate is on, r's own otherwise). Returns the number of mutating
// applications. Caller holds c.mu.
func (c *Cluster) applySince(r *replica) int {
	applied := 0
	for i := r.lastApplied; i < uint64(len(c.ops)); i++ {
		op := &c.ops[i]
		if c.cfg.Replicate || op.Origin == r.id {
			switch op.Kind {
			case OpInstall, OpAggregate:
				r.filters[op.Label] = op.Expires
			case OpRemove, OpExpire:
				delete(r.filters, op.Label)
			}
			applied++
		}
		r.lastApplied = op.Seq
	}
	return applied
}

// lessLabel is a deterministic total order on labels, used to keep
// log append order independent of map iteration order.
func lessLabel(a, b flow.Label) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	if a.Wildcards != b.Wildcards {
		return a.Wildcards < b.Wildcards
	}
	if a.SrcPrefixLen != b.SrcPrefixLen {
		return a.SrcPrefixLen < b.SrcPrefixLen
	}
	return a.DstPrefixLen < b.DstPrefixLen
}

// MergeRound is the cluster's heartbeat: ship the log to every alive
// replica, expire dead filters, publish each replica's frozen summary,
// empty and refill the merged detection view and sweep it for threshold
// crossings no single replica saw. Returns the number of new pending
// detections. The summaries and the view are reset in place
// (detect.Engine.Reset), so a round allocates no sketch.
func (c *Cluster) MergeRound(now sim.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.MergeRounds++

	// 1. Log shipping: peers batch-apply ops appended since the last
	// round.
	for _, r := range c.reps {
		if r.alive {
			c.applySince(r)
		}
	}

	// 2. Expiry: deadline-passed filters leave every view and the log
	// records it. Labels are sorted so the log append order is
	// deterministic.
	seen := map[flow.Label]int{}
	var expired []flow.Label
	for _, r := range c.reps {
		if !r.alive {
			continue
		}
		for lbl, exp := range r.filters {
			if exp > now {
				continue
			}
			if _, dup := seen[lbl]; !dup {
				seen[lbl] = r.id
				expired = append(expired, lbl)
			}
			delete(r.filters, lbl)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return lessLabel(expired[i], expired[j]) })
	for _, lbl := range expired {
		c.record(OpExpire, lbl, 0, now, seen[lbl])
	}
	if len(expired) > 0 {
		// Re-ship so the expiry ops reach every alive replica within
		// the same round (their views already dropped the entries; this
		// keeps log positions quiesced too).
		for _, r := range c.reps {
			if r.alive {
				c.applySince(r)
			}
		}
	}

	if !c.armed {
		return 0
	}

	// 3. Publish: every alive replica freezes a copy of its current
	// summary. The copy is what a dead replica keeps contributing
	// until its window lapses (detect merge self-erases stale state).
	live := 0
	for _, r := range c.reps {
		if r.alive && r.eng != nil {
			live++
		}
	}
	for _, r := range c.reps {
		if !r.alive || r.eng == nil {
			continue
		}
		r.sum.Reset()
		if err := r.sum.Merge(now, r.eng); err != nil {
			continue // unreachable: identical configs
		}
		if live > 1 {
			c.stats.MergeBytes += uint64(r.eng.MergeSize()) * uint64(live-1)
		}
	}

	// 4. Merged view, emptied first so each source contributes exactly
	// once — the discipline that keeps count − err a true lower bound.
	// Alive replicas contribute their primaries; dead replicas their
	// last published summaries.
	view := c.view
	view.Reset()
	for _, r := range c.reps {
		src := r.eng
		if !r.alive {
			src = r.sum
		}
		if src == nil {
			continue
		}
		if err := view.Merge(now, src); err != nil {
			continue // unreachable: identical configs
		}
	}

	// 5. Sweep for crossings and park them for the next packet of each
	// flow; flag the owner's engine so its quiet-window re-arm governs
	// re-detection exactly as for inline detections.
	fresh := 0
	for _, d := range view.Sweep(now, nil) {
		key := pairKey(d.Src, d.Dst)
		if _, dup := c.pending[key]; dup {
			continue
		}
		c.pending[key] = d
		c.stats.MergeDetections++
		fresh++
		if o := c.ownerOf(key); o >= 0 && c.reps[o].eng != nil {
			c.reps[o].eng.Flag(now, d.Src, d.Dst)
		}
	}
	return fresh
}

// removedLater reports whether the log's most recent op for label —
// appended after seq — removed it. Used to distinguish "deliberately
// removed cluster-wide" from "lost in the crash". Caller holds c.mu.
func (c *Cluster) removedLater(label flow.Label, seq uint64) bool {
	for i := len(c.ops) - 1; i >= 0; i-- {
		op := &c.ops[i]
		if op.Seq <= seq {
			return false
		}
		if op.Label == label {
			return op.Kind == OpRemove || op.Kind == OpExpire
		}
	}
	return false
}

// KillReplica marks replica id dead: its primary engine and any
// observations since the last merge round are lost (its frozen summary
// survives and keeps feeding the merged view for one window), and its
// flows reassign by rendezvous hash. With the replicated log on, every
// survivor first catches up on the log tail, so each filter live on
// the dead replica is live on every survivor before its original
// deadline — those count as inherited. With replication off they are
// lost. Returns the inherited/lost counts and whether id named an
// alive replica.
func (c *Cluster) KillReplica(id int, now sim.Time) (inherited, lost int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.reps) || !c.reps[id].alive {
		return 0, 0, false
	}
	dead := c.reps[id]
	dead.alive = false
	dead.eng = nil
	c.stats.Failovers++

	if c.cfg.Replicate {
		start := time.Now() // aitf:wallclock CatchupNanos is profiling-only and scrubbed from replay fingerprints (invariants.go)
		for _, s := range c.reps {
			if s.alive {
				c.stats.CatchupOps += uint64(c.applySince(s))
			}
		}
		c.stats.CatchupNanos += uint64(time.Since(start)) // aitf:wallclock profiling-only counter, never fingerprinted
	}

	for lbl, exp := range dead.filters {
		if exp <= now {
			continue
		}
		held := false
		for _, s := range c.reps {
			if s.alive {
				if sexp, has := s.filters[lbl]; has && sexp >= exp {
					held = true
					break
				}
			}
		}
		switch {
		case held:
			inherited++
		case c.removedLater(lbl, dead.lastApplied):
			// The log removed it after the dead replica last looked:
			// not protection lost, protection retired.
		default:
			lost++
		}
	}
	c.stats.FiltersInherited += uint64(inherited)
	c.stats.FiltersLost += uint64(lost)
	return inherited, lost, true
}

// Alive reports whether replica id is alive.
func (c *Cluster) Alive(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return id >= 0 && id < len(c.reps) && c.reps[id].alive
}

// Replicas is the configured replica count.
func (c *Cluster) Replicas() int { return len(c.reps) }

// LogLen is the replicated log's length.
func (c *Cluster) LogLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

// Stats returns a copy of the lifetime counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FilterView returns a copy of replica id's applied filter view.
func (c *Cluster) FilterView(id int) map[flow.Label]sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.reps) {
		return nil
	}
	out := make(map[flow.Label]sim.Time, len(c.reps[id].filters))
	for lbl, exp := range c.reps[id].filters {
		out[lbl] = exp
	}
	return out
}

// CheckConsistency verifies invariant 7's first half: every live
// replica's filter view agrees with a full replay of the replicated
// log (scoped per origin when replication is off). Entries whose
// deadline has passed are ignored on both sides — expiry between merge
// rounds is local table maintenance, not divergence. Returns "" when
// consistent. Call after a final MergeRound so log shipping has
// quiesced.
func (c *Cluster) CheckConsistency(now sim.Time) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.reps {
		if !r.alive {
			continue
		}
		canon := map[flow.Label]sim.Time{}
		for i := range c.ops {
			op := &c.ops[i]
			if op.Seq > r.lastApplied {
				break
			}
			if !c.cfg.Replicate && op.Origin != r.id {
				continue
			}
			switch op.Kind {
			case OpInstall, OpAggregate:
				canon[op.Label] = op.Expires
			case OpRemove, OpExpire:
				delete(canon, op.Label)
			}
		}
		for lbl, exp := range canon {
			if exp <= now {
				continue
			}
			if got, has := r.filters[lbl]; !has || got != exp {
				return fmt.Sprintf("replica %d: log says %v expires %v, view has (%v, %v)",
					r.id, lbl, exp, got, has)
			}
		}
		for lbl, exp := range r.filters {
			if exp <= now {
				continue
			}
			if _, has := canon[lbl]; !has {
				return fmt.Sprintf("replica %d: view holds %v absent from the log replay", r.id, lbl)
			}
		}
		if c.cfg.Replicate && r.lastApplied != uint64(len(c.ops)) {
			return fmt.Sprintf("replica %d: applied %d of %d log ops after quiesce",
				r.id, r.lastApplied, len(c.ops))
		}
	}
	return ""
}

// ExportState snapshots the durable part of the cluster: the log,
// liveness, per-replica log positions and counters. Engines are
// volatile by design.
func (c *Cluster) ExportState() *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &State{
		Ops:         append([]Op(nil), c.ops...),
		Alive:       make([]bool, len(c.reps)),
		LastApplied: make([]uint64, len(c.reps)),
		Stats:       c.stats,
	}
	for i, r := range c.reps {
		st.Alive[i] = r.alive
		st.LastApplied[i] = r.lastApplied
	}
	return st
}

// ImportState restores a snapshot taken by ExportState: the log is
// adopted, each replica's filter view is rebuilt by replaying its
// applied prefix, and liveness carries over. Detection engines start
// empty — the merged sweep re-acquires ongoing attacks from live
// traffic, which is exactly the failover-not-re-detection contract.
func (c *Cluster) ImportState(st *State, now sim.Time) {
	if st == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops = append(c.ops[:0], st.Ops...)
	c.stats = st.Stats
	c.pending = map[uint64]detect.Detection{}
	for i, r := range c.reps {
		r.filters = map[flow.Label]sim.Time{}
		r.lastApplied = 0
		if i < len(st.Alive) {
			r.alive = st.Alive[i]
		}
		if !r.alive {
			r.eng, r.sum = nil, nil
			continue
		}
		if c.armed {
			if r.eng == nil {
				r.eng, r.sum = detect.New(c.detCfg), detect.New(c.detCfg)
			} else {
				r.sum.Reset() // what was published before the restore is gone
			}
		}
		if i < len(st.LastApplied) {
			target := st.LastApplied[i]
			for j := range c.ops {
				op := &c.ops[j]
				if op.Seq > target {
					break
				}
				if c.cfg.Replicate || op.Origin == r.id {
					switch op.Kind {
					case OpInstall, OpAggregate:
						r.filters[op.Label] = op.Expires
					case OpRemove, OpExpire:
						delete(r.filters, op.Label)
					}
				}
				r.lastApplied = op.Seq
			}
		}
	}
}

// Pairs implements alloc.Traffic over the cluster: the union of every
// alive replica's heavy-hitter snapshot. Shards are disjoint, so the
// union is the cluster-wide view without double counting.
func (c *Cluster) Pairs(visit func(src, dst flow.Addr, bytes uint64, flagged bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.reps {
		if !r.alive || r.eng == nil {
			continue
		}
		for _, h := range r.eng.TopK() {
			visit(h.Src, h.Dst, h.Bytes, h.Flagged)
		}
	}
}

// BaselineBps implements alloc.Traffic: the destination's largest
// per-replica EWMA. Baselines do not merge soundly (see detect), so
// the max is the conservative cluster-wide choice — it never
// understates the legit traffic an aggregate would collaterally block.
func (c *Cluster) BaselineBps(dst flow.Addr) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := 0.0
	for _, r := range c.reps {
		if !r.alive || r.eng == nil {
			continue
		}
		if b := r.eng.Baseline(dst); b > best {
			best = b
		}
	}
	return best
}
