// Package dataplane is the concurrent fast path of an AITF border
// router: a sharded, batch-oriented packet classification engine shared
// by the discrete-event simulator (internal/core) and the UDP wire
// runtime (internal/wire).
//
// The engine is the tree's one implementation of the bounded
// wire-speed filter bank and the DRAM shadow log (paper §II-B / §IV-B;
// internal/filter holds the entry and counter types, and its tests are
// this engine's contract). Both are one table type used twice: a
// bounded table of flow labels with deadlines, holding one 48-byte
// record type and matched by one probe walk; only how long a record
// lasts and what its counters mean differ. Each table is partitioned
// into N hash shards keyed by the (src, dst) pair of the flow label —
// the pair is what AITF filtering requests name, so a tuple's exact
// label, its canonical pair label, and every indexable label with a
// concrete host pair all land in the same shard as the tuple's lookup.
// Labels that wildcard — or hold only a prefix of — the source or
// destination address can match tuples hashing anywhere, and live in a
// dedicated wild segment consulted only while it is non-empty.
//
// The classification read path is lock-free: each segment publishes a
// match snapshot through an atomic.Pointer, and readers classify
// against whatever state is current, bumping only atomic counters —
// they never block, never write shared cache lines beyond their
// verdict accounting, and never allocate. A snapshot is a four-level
// match hierarchy: a label-keyed hash directory probed at the exact and
// pair labels (each probe skipped while the view holds no label of its
// shape), a destination-keyed directory for dst-anchored wildcard
// shapes, a source-prefix directory keyed by (prefix, length) and
// probed once per prefix length present — shortest first, so the
// coarsest covering prefix is charged — and a residual scan list for
// the rare anchor-less shapes. A directory slot is 16 bytes: the
// record's full 32-bit key hash, compared before the record is touched,
// and the record pointer. The control plane (install / remove / expire
// / log) is RCU-style: writers take a per-segment writer mutex and
// either append in place to the buckets they touch (the slot is written
// before the bucket's atomic length publishes it), swap in a
// replacement bucket (a full bucket doubles; a removal copies what is
// left), or publish a whole new view (directory resizes, expiry sweeps,
// scan-shape changes); refreshes mutate the shared record's atomic
// deadline without any republish. Readers therefore observe individual
// writes with per-lookup atomicity, not per-batch isolation —
// equivalent to the writes landing between packets. Capacity is a
// single global budget per table across segments, mirroring the
// hardware argument that the filter bank is one scarce resource: an
// engine with N shards accepts exactly as many filters, and returns the
// same verdicts, as an engine with one.
package dataplane

import (
	"fmt"
	"sync/atomic"

	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of hash partitions; values <= 0 mean 1,
	// values above MaxShards mean MaxShards, and the rest are rounded up
	// to a power of two.
	Shards int
	// FilterCapacity bounds the wire-speed filter bank, summed across
	// all shards (the hardware budget is global; shards only partition
	// the lookup work).
	FilterCapacity int
	// ShadowCapacity bounds the DRAM shadow cache, likewise global.
	ShadowCapacity int
	// Evict selects what Install does when the filter bank is full.
	Evict filter.EvictPolicy
	// ShadowLookup makes classification consult the shadow segment on
	// filter misses, reporting "on-off" flow reappearances (§II-B).
	// Disabled it models the shadow-off ablation.
	ShadowLookup bool
	// Clock supplies "now" for classification; see WallClock.
	Clock Clock
}

// Verdict is the outcome of classifying one packet.
type Verdict struct {
	// Drop is true when a live wire-speed filter covers the packet; the
	// drop has already been charged to that filter's counters.
	Drop bool
	// ShadowHit is true when the packet was not dropped but a live
	// shadow record covers its flow — an "on-off" reappearance. The hit
	// has already been recorded.
	ShadowHit bool
	// Shadow is a snapshot of the matched shadow record (valid only
	// when ShadowHit), taken after recording the reappearance.
	Shadow filter.ShadowEntry
}

// Engine is the sharded classification engine. All methods are safe for
// concurrent use.
type Engine struct {
	cfg   Config
	clock Clock

	// filters is the wire-speed filter bank, shadows the shadow log.
	filters, shadows table

	// The filter bank's removal reasons beyond the tables' own counters.
	removed, aggregates, aggregated atomic.Uint64 // aitf:atomic

	// classified counts packets classified (batch paths add the whole
	// batch size in one atomic add, so the per-packet cost is ~zero).
	classified atomic.Uint64 // aitf:atomic
	// batchHist, when instrumented, observes ClassifyInto batch sizes.
	// It is an atomic pointer so Instrument can race with live
	// classification; nil (the uninstrumented default) costs one
	// predictable branch per batch.
	batchHist atomic.Pointer[obs.Histogram] // aitf:atomic
}

// MaxShards bounds Config.Shards, far above any useful partitioning:
// rounding a larger count up to a power of two would overflow.
const MaxShards = 1024

// New builds an engine. The clock must be non-nil.
func New(cfg Config) *Engine {
	if cfg.Clock == nil {
		panic("dataplane: Config.Clock is required")
	}
	cfg.Shards = min(max(cfg.Shards, 1), MaxShards)
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	cfg.Shards = n
	cfg.FilterCapacity = max(cfg.FilterCapacity, 0)
	cfg.ShadowCapacity = max(cfg.ShadowCapacity, 0)
	e := &Engine{cfg: cfg, clock: cfg.Clock}
	e.filters.init(n, cfg.FilterCapacity, cfg.Evict != filter.RejectNew && cfg.FilterCapacity > 0, false)
	e.shadows.init(n, cfg.ShadowCapacity, false, true)
	return e
}

// Now returns the engine clock's current time.
func (e *Engine) Now() filter.Time { return e.clock.Now() }

// ── Classification (hot path, lock-free) ────────────────────────────

// ClassifyTuple classifies a single concrete tuple of payloadBytes
// payload at the engine clock's current time.
func (e *Engine) ClassifyTuple(tup flow.Tuple, payloadBytes int) Verdict {
	e.classified.Add(1)
	now := e.clock.Now()
	wf, ws := e.wildViews()
	return e.classifyAt(tup, payloadBytes, now, wf, ws)
}

// ClassifyInto classifies a batch of packets into a caller-owned
// verdict slice (grown as needed), for allocation-free steady-state
// use. Every packet is stamped with the same "now", read once from the
// engine clock, and checked in arrival order against the wild views
// loaded once for the batch. Those loads are not a per-batch snapshot:
// concurrent single-entry writes land in the live views, so a filter
// installed mid-batch can apply to the batch's later packets — the
// same semantics as the write landing between two packets.
func (e *Engine) ClassifyInto(batch []*packet.Packet, out []Verdict) []Verdict {
	if cap(out) < len(batch) {
		out = make([]Verdict, len(batch))
	}
	out = out[:len(batch)]
	e.classified.Add(uint64(len(batch)))
	if h := e.batchHist.Load(); h != nil {
		h.Observe(uint64(len(batch)))
	}
	now := e.clock.Now()
	wf, ws := e.wildViews()
	for i, p := range batch {
		out[i] = e.classifyAt(p.Tuple(), int(p.PayloadLen), now, wf, ws)
	}
	return out
}

// wildViews loads the wild segments' filter and shadow views: the
// segment applies to every packet whatever its home shard. A view is
// nil while its segment is empty (and the shadow view also while shadow
// lookup is off), so the common all-pairs table skips the segment with
// one predictable branch.
func (e *Engine) wildViews() (wf, ws *view) {
	wf = e.filters.wildView()
	if e.cfg.ShadowLookup {
		ws = e.shadows.wildView()
	}
	return wf, ws
}

// classifyAt is the per-packet decision: home-shard filter bank first,
// then the wild filter view wf (the filter bank always outranks the
// shadow log), then the home shadow shard and the wild shadow view ws.
// A nil wild view is skipped. All lookups go through the published
// immutable snapshots; no locks are taken.
func (e *Engine) classifyAt(tup flow.Tuple, payloadBytes int, now filter.Time, wf, ws *view) Verdict {
	exact := tup.ExactLabel()
	pair := flow.PairLabel(tup.Src, tup.Dst)
	i := shardIdx(tup.Src, tup.Dst, uint32(len(e.filters.shards)-1))

	fs := &e.filters.shards[i]
	if r := match(fs.view.Load(), exact, pair, tup, now); r != nil {
		return fs.drop(r, payloadBytes)
	}
	if wf != nil {
		if r := match(wf, exact, pair, tup, now); r != nil {
			return e.filters.wild.drop(r, payloadBytes)
		}
	}
	if !e.cfg.ShadowLookup {
		return Verdict{}
	}
	ss := &e.shadows.shards[i]
	if r := match(ss.view.Load(), exact, pair, tup, now); r != nil {
		return ss.reappear(r)
	}
	if ws != nil {
		if r := match(ws, exact, pair, tup, now); r != nil {
			return e.shadows.wild.reappear(r)
		}
	}
	return Verdict{}
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ── Filter control plane ─────────────────────────────────────────────

// Install adds a filter for label until deadline exp, refreshing the
// expiry (and keeping counters) when the label is already present: a
// refresh never shortens a deadline, consumes no capacity and always
// succeeds. A new label first reclaims entries already dead at now;
// if the global budget is still spent, RejectNew returns
// filter.ErrTableFull and EvictSoonest displaces the engine-wide entry
// nearest to expiry. A zero-capacity engine rejects under either policy.
func (e *Engine) Install(label flow.Label, now, exp filter.Time) error {
	return e.full(e.filters.insert(filter.Entry{Label: label, InstalledAt: now, ExpiresAt: exp}, true))
}

// AdoptFilter re-installs a snapshotted entry with its install time,
// deadline and drop counters: the restore path after a gateway crash.
// It is Install without the reclaim, since a restore has no "now" of
// its own; adopting a label already present only raises its deadline.
func (e *Engine) AdoptFilter(ent filter.Entry) error { return e.full(e.filters.insert(ent, false)) }

// full turns a rejected filter write into filter.ErrTableFull.
func (e *Engine) full(ok bool) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%w (capacity %d)", filter.ErrTableFull, e.cfg.FilterCapacity)
}

// Remove deletes the filter for label, reporting whether it existed.
func (e *Engine) Remove(label flow.Label) bool {
	if _, ok := e.filters.remove(label.Key()); ok {
		e.removed.Add(1)
		return true
	}
	return false
}

// Aggregate replaces the child filters with one covering aggregate
// filter (typically a source-prefix label over sibling pair filters)
// under a strict budget-conservation contract:
//
//   - Occupancy changes by exactly 1 − replaced, where replaced counts
//     the children actually present; absent labels and the aggregate's
//     own key are skipped. With replaced == 0 this is a plain Install,
//     capacity check included.
//   - The aggregate's deadline is raised to the latest child deadline
//     so no child loses coverage time.
//   - Child removals count under Aggregated rather than Removed, and a
//     newly installed aggregate under Aggregates rather than Installed
//     (no double-count); refreshing a live aggregate counts nowhere.
//     Children's drops stay in the cumulative FilterStats; the
//     aggregate entry starts counting from zero.
//
// With replaced ≥ 1 the freed slots guarantee the install cannot be
// rejected for capacity in the single-writer deployments the simulator
// runs; in concurrent use a racing installer can still win the freed
// slot, in which case the error is returned and the children stay
// removed. It is the caller's job to pass children the aggregate label
// actually covers.
func (e *Engine) Aggregate(agg flow.Label, children []flow.Label, now, exp filter.Time) (replaced int, err error) {
	agg = agg.Key()
	for _, c := range children {
		c = c.Key()
		if c == agg {
			continue
		}
		if cexp, ok := e.filters.remove(c); ok {
			if cexp > exp {
				exp = cexp
			}
			replaced++
		}
	}
	e.aggregated.Add(uint64(replaced))
	existed, _ := e.filters.get(agg)
	if err := e.Install(agg, now, exp); err != nil {
		return replaced, err
	}
	if existed == nil {
		// Install charged the new entry to Installed; reattribute it to
		// Aggregates so the Stats occupancy arithmetic stays
		// single-entry.
		e.aggregates.Add(1)
		e.filters.added.Add(^uint64(0))
	}
	return replaced, nil
}

// Get returns a snapshot of the live filter entry for the exact label.
// Like classification, it reads the published view and takes no locks.
func (e *Engine) Get(label flow.Label, now filter.Time) (filter.Entry, bool) {
	r, _ := e.filters.get(label.Key())
	if r == nil || r.expires() <= now {
		return filter.Entry{}, false
	}
	return r.entry(), true
}

// Expire garbage-collects filters whose deadline has passed, returning
// how many were removed across all shards.
func (e *Engine) Expire(now filter.Time) int { return e.filters.expire(now) }

// Len returns the number of installed filters (including entries whose
// deadline has passed but which have not been garbage-collected yet),
// summed across shards.
func (e *Engine) Len() int { return int(e.filters.used.Load()) }

// FilterCapacity returns the global wire-speed filter budget.
func (e *Engine) FilterCapacity() int { return e.cfg.FilterCapacity }

// FilterStats aggregates counters across shards into filter.Stats.
func (e *Engine) FilterStats() filter.Stats {
	drops, bytes := e.filters.sums()
	return filter.Stats{
		Installed:     e.filters.added.Load(),
		Rejected:      e.filters.rejected.Load(),
		Evicted:       e.filters.evicted.Load(),
		Expired:       e.filters.expired.Load(),
		Removed:       e.removed.Load(),
		Aggregates:    e.aggregates.Load(),
		Aggregated:    e.aggregated.Load(),
		Drops:         drops,
		DroppedBytes:  bytes,
		PeakOccupancy: int(e.filters.peak.Load()),
	}
}

// FilterEntries returns a merged snapshot of installed filters sorted
// by expiry (soonest first, ties by label text).
func (e *Engine) FilterEntries() []filter.Entry { return e.filters.list() }

// ── Shadow-cache control plane ───────────────────────────────────────

// LogShadow records a filtering request for label until exp, refreshing
// expiry and victim (and keeping counters) when already present. A new
// label first reclaims records already dead at now; it returns false,
// counting a rejection, when the log is still full or has capacity 0.
func (e *Engine) LogShadow(label flow.Label, victim flow.Addr, now, exp filter.Time) bool {
	return e.shadows.insert(fromShadow(filter.ShadowEntry{Label: label, LoggedAt: now, ExpiresAt: exp, Victim: victim}), true)
}

// AdoptShadow re-logs a snapshotted shadow entry with its logged time,
// deadline, victim and reappearance count: the restore path after a
// gateway crash. It is LogShadow without the reclaim.
func (e *Engine) AdoptShadow(ent filter.ShadowEntry) bool {
	return e.shadows.insert(fromShadow(ent), false)
}

// ShadowGet returns a snapshot of the live shadow record for the exact
// label, if any. Lock-free, like classification.
func (e *Engine) ShadowGet(label flow.Label, now filter.Time) (filter.ShadowEntry, bool) {
	r, _ := e.shadows.get(label.Key())
	if r == nil || r.expires() <= now {
		return filter.ShadowEntry{}, false
	}
	return toShadow(r.entry()), true
}

// ShadowHit records a reappearance of the flow logged under label
// (e.g. one reported by the victim rather than observed in-line),
// returning the updated snapshot.
func (e *Engine) ShadowHit(label flow.Label) (filter.ShadowEntry, bool) {
	r, s := e.shadows.get(label.Key())
	if r == nil {
		return filter.ShadowEntry{}, false
	}
	return s.reappear(r).Shadow, true
}

// ExpireShadows garbage-collects shadow records past their deadline.
func (e *Engine) ExpireShadows(now filter.Time) int { return e.shadows.expire(now) }

// ShadowLen returns the number of logged shadow records.
func (e *Engine) ShadowLen() int { return int(e.shadows.used.Load()) }

// ShadowCapacity returns the global shadow-cache budget.
func (e *Engine) ShadowCapacity() int { return e.cfg.ShadowCapacity }

// ShadowStats aggregates counters across shards.
func (e *Engine) ShadowStats() filter.ShadowStats {
	hits, _ := e.shadows.sums()
	return filter.ShadowStats{
		Logged:   e.shadows.added.Load(),
		Hits:     hits,
		Expired:  e.shadows.expired.Load(),
		Rejected: e.shadows.rejected.Load(),
		PeakSize: int(e.shadows.peak.Load()),
	}
}

// ShadowEntries returns a merged snapshot sorted by expiry.
func (e *Engine) ShadowEntries() []filter.ShadowEntry {
	ents := e.shadows.list()
	out := make([]filter.ShadowEntry, len(ents))
	for i, en := range ents {
		out[i] = toShadow(en)
	}
	return out
}
