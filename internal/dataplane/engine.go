// Package dataplane is the concurrent fast path of an AITF border
// router: a sharded, batch-oriented packet classification engine shared
// by the discrete-event simulator (internal/core) and the UDP wire
// runtime (internal/wire).
//
// The engine is the tree's one implementation of the bounded
// wire-speed filter bank and the DRAM shadow log (paper §II-B / §IV-B;
// internal/filter holds the entry and counter types, and its tests are
// this engine's contract). It partitions both into N hash shards keyed
// by the (src, dst) pair of the flow label — the pair is what AITF
// filtering requests name, so a tuple's exact label, its canonical
// pair label, and every indexable label with a concrete host pair all
// land in the same shard as the tuple's lookup. Labels that wildcard — or hold only a prefix of — the source
// or destination address can match tuples hashing anywhere, and live
// in a dedicated overflow segment consulted only while it is
// non-empty.
//
// The classification read path is lock-free: each shard publishes a
// match snapshot through an atomic.Pointer, and readers classify
// against whatever state is current, bumping only atomic counters —
// they never block, never write shared cache lines beyond their
// verdict accounting, and never allocate. A snapshot is a four-level
// match hierarchy, each level immutable per generation: a bucketized
// label map probed at the exact and pair labels, a destination-keyed
// secondary hash index for dst-anchored wildcard shapes, a persistent
// compressed binary trie over source prefixes (at most 32 nodes walked
// per lookup), and a residual scan list for the rare anchor-less
// shapes. The control plane (install / remove / expire / log) is
// RCU-style: writers take a per-shard writer mutex and publish either
// a replacement for the one bucket they touched (single-entry writes;
// the slot pointer is the swap), a path-copied trie root (prefix
// writes), or a whole new view (resizes, expiry sweeps, scan-shape
// changes); expiry refreshes mutate the shared entry's atomic deadline
// without any republish. Readers therefore observe individual writes
// with per-lookup atomicity, not per-batch isolation — equivalent to
// the writes landing between packets. Capacity is a single global
// budget across shards,
// mirroring the hardware argument that the filter bank is one scarce
// resource: an engine with N shards accepts exactly as many filters,
// and returns the same verdicts, as an engine with one.
package dataplane

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of hash partitions; values <= 0 mean 1 and
	// other values are rounded up to a power of two.
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
	// Clock supplies "now" for classification; see SimClock / WallClock.
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
	mask  uint32
	clock Clock

	shards []*shard
	wild   *shard // labels with a wildcard src or dst address

	// wildFilters / wildShadows count live-ish entries in the wild
	// segment so the hot path can skip it entirely when empty.
	wildFilters atomic.Int64 // aitf:atomic
	wildShadows atomic.Int64 // aitf:atomic

	// Global occupancy and stats. Capacity is enforced on fUsed/sUsed;
	// the remaining counters are the fields of filter.Stats and
	// filter.ShadowStats.
	fUsed, fPeak atomic.Int64 // aitf:atomic
	sUsed, sPeak atomic.Int64 // aitf:atomic

	installed, rejected, evicted, expired, removed atomic.Uint64 // aitf:atomic
	aggregates, aggregated                         atomic.Uint64 // aitf:atomic

	sLogged, sExpired, sRejected atomic.Uint64 // aitf:atomic

	// classified counts packets classified (batch paths add the whole
	// batch size in one atomic add, so the per-packet cost is ~zero).
	classified atomic.Uint64 // aitf:atomic
	// batchHist, when instrumented, observes ClassifyInto batch sizes.
	// It is an atomic pointer so Instrument can race with live
	// classification; nil (the uninstrumented default) costs one
	// predictable branch per batch.
	batchHist atomic.Pointer[obs.Histogram] // aitf:atomic

	scratch sync.Pool // *batchScratch, for ClassifyInto bucketing
}

// New builds an engine. The clock must be non-nil.
func New(cfg Config) *Engine {
	if cfg.Clock == nil {
		panic("dataplane: Config.Clock is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	cfg.Shards = n
	if cfg.FilterCapacity < 0 {
		cfg.FilterCapacity = 0
	}
	if cfg.ShadowCapacity < 0 {
		cfg.ShadowCapacity = 0
	}
	e := &Engine{cfg: cfg, mask: uint32(n - 1), clock: cfg.Clock, wild: newShard()}
	e.shards = make([]*shard, n)
	for i := range e.shards {
		e.shards[i] = newShard()
	}
	e.scratch.New = func() any { return &batchScratch{} }
	return e
}

// Shards returns the number of hash partitions.
func (e *Engine) Shards() int { return len(e.shards) }

// Now returns the engine clock's current time.
func (e *Engine) Now() filter.Time { return e.clock.Now() }

// shardIdx hashes a (src, dst) pair to its partition.
func (e *Engine) shardIdx(src, dst flow.Addr) uint32 {
	h := uint64(src)<<32 | uint64(dst)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h) & e.mask
}

// segFor returns the segment that owns a canonical label: the wild
// overflow segment when src or dst is wildcarded or prefix-granular
// (such a label matches tuples hashing to any pair shard), the pair's
// hash shard otherwise.
func (e *Engine) segFor(label flow.Label) (*shard, bool) {
	if label.Wildcards&(flow.WildSrc|flow.WildDst) != 0 ||
		label.SrcPrefixLen != 0 || label.DstPrefixLen != 0 {
		return e.wild, true
	}
	return e.shards[e.shardIdx(label.Src, label.Dst)], false
}

// allSegs iterates every segment including the wild one.
func (e *Engine) allSegs(fn func(*shard, bool)) {
	for _, s := range e.shards {
		fn(s, false)
	}
	fn(e.wild, true)
}

// ── Classification (hot path, lock-free) ────────────────────────────

// ClassifyTuple classifies a single concrete tuple of payloadBytes
// payload at the engine clock's current time.
func (e *Engine) ClassifyTuple(tup flow.Tuple, payloadBytes int) Verdict {
	e.classified.Add(1)
	return e.classifyAt(tup, payloadBytes, e.clock.Now())
}

func chargeDrop(s *shard, fe *fentry, payloadBytes int) {
	fe.drops.Add(1)
	fe.droppedBytes.Add(uint64(payloadBytes))
	s.drops.Add(1)
	s.droppedBytes.Add(uint64(payloadBytes))
}

func recordShadowHit(s *shard, se *sentry) Verdict {
	se.reapp.Add(1)
	s.shadowHits.Add(1)
	return Verdict{ShadowHit: true, Shadow: se.snapshot()}
}

// classifyAt is the per-packet decision: home-shard filter bank first,
// then the wild filter segment (the filter bank always outranks the
// shadow cache), then the shadow segments. All lookups go through the
// published immutable snapshots; no locks are taken.
func (e *Engine) classifyAt(tup flow.Tuple, payloadBytes int, now filter.Time) Verdict {
	exact := tup.ExactLabel()
	pair := flow.PairLabel(tup.Src, tup.Dst)
	s := e.shards[e.shardIdx(tup.Src, tup.Dst)]

	if fe := s.fview.Load().match(exact, pair, tup, now); fe != nil {
		chargeDrop(s, fe, payloadBytes)
		return Verdict{Drop: true}
	}
	if e.wildFilters.Load() > 0 {
		if fe := e.wild.fview.Load().match(exact, pair, tup, now); fe != nil {
			chargeDrop(e.wild, fe, payloadBytes)
			return Verdict{Drop: true}
		}
	}
	if !e.cfg.ShadowLookup {
		return Verdict{}
	}
	if se := s.sview.Load().lookup(exact, pair, tup, now); se != nil {
		return recordShadowHit(s, se)
	}
	if e.wildShadows.Load() > 0 {
		if se := e.wild.sview.Load().lookup(exact, pair, tup, now); se != nil {
			return recordShadowHit(e.wild, se)
		}
	}
	return Verdict{}
}

// batchScratch holds the per-call bucketing state for ClassifyInto,
// pooled to keep the batch path allocation-free at steady state.
type batchScratch struct {
	count []int32 // packets per shard
	start []int32 // prefix offsets per shard
	order []int32 // packet indices grouped by shard
}

// smallBatch is the size below which bucketing costs more than it saves.
const smallBatch = 4

// Classify classifies a batch of packets, amortizing per-shard snapshot
// loads and cache misses by grouping packets per shard. All packets in
// the batch are stamped with the same "now" read once from the engine
// clock.
func (e *Engine) Classify(batch []*packet.Packet) []Verdict {
	return e.ClassifyInto(batch, make([]Verdict, len(batch)))
}

// ClassifyInto is Classify writing into a caller-owned verdict slice
// (grown as needed), for allocation-free steady-state use.
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

	if len(batch) < smallBatch || len(e.shards) == 1 {
		for i, p := range batch {
			out[i] = e.classifyAt(p.Tuple(), int(p.PayloadLen), now)
		}
		return out
	}

	sc := e.scratch.Get().(*batchScratch)
	ns := len(e.shards)
	if cap(sc.count) < ns {
		sc.count = make([]int32, ns)
		sc.start = make([]int32, ns)
	}
	sc.count = sc.count[:ns]
	sc.start = sc.start[:ns]
	for i := range sc.count {
		sc.count[i] = 0
	}
	if cap(sc.order) < len(batch) {
		sc.order = make([]int32, len(batch))
	}
	sc.order = sc.order[:len(batch)]

	for _, p := range batch {
		sc.count[e.shardIdx(p.Src, p.Dst)]++
	}
	var off int32
	for i, c := range sc.count {
		sc.start[i] = off
		off += c
	}
	pos := sc.start
	for i, p := range batch {
		si := e.shardIdx(p.Src, p.Dst)
		sc.order[pos[si]] = int32(i)
		pos[si]++
	}

	// pos[si] now points one past shard si's slice; recover the starts.
	wantShadow := e.cfg.ShadowLookup
	// The wild segment (wildcard- and prefix-shaped labels) applies to
	// every packet regardless of home shard; load its snapshots once per
	// batch. Its indexes (dst hash + source-prefix trie) keep the probe
	// cheap even when the segment holds most of the table. Skipped
	// entirely while empty.
	var wfv *filterView
	if e.wildFilters.Load() > 0 {
		wfv = e.wild.fview.Load()
	}
	var wsv *shadowView
	if wantShadow && e.wildShadows.Load() > 0 {
		wsv = e.wild.sview.Load()
	}
	begin := int32(0)
	for si := 0; si < ns; si++ {
		end := pos[si]
		if end == begin {
			continue
		}
		s := e.shards[si]
		// One view load per shard run amortizes the pointer chases, but
		// is NOT a per-batch snapshot: concurrent single-entry writes
		// swap bucket slots inside the live view, so a filter installed
		// mid-run can apply to the run's later packets — the same
		// semantics as the write landing between two packets.
		fv := s.fview.Load()
		var sv *shadowView
		if wantShadow {
			sv = s.sview.Load()
		}
		for _, pi := range sc.order[begin:end] {
			p := batch[pi]
			tup := p.Tuple()
			exact := tup.ExactLabel()
			pair := flow.PairLabel(tup.Src, tup.Dst)
			if fe := fv.match(exact, pair, tup, now); fe != nil {
				chargeDrop(s, fe, int(p.PayloadLen))
				out[pi] = Verdict{Drop: true}
				continue
			}
			if wfv != nil {
				if fe := wfv.match(exact, pair, tup, now); fe != nil {
					chargeDrop(e.wild, fe, int(p.PayloadLen))
					out[pi] = Verdict{Drop: true}
					continue
				}
			}
			if wantShadow {
				if se := sv.lookup(exact, pair, tup, now); se != nil {
					out[pi] = recordShadowHit(s, se)
					continue
				}
				if wsv != nil {
					if se := wsv.lookup(exact, pair, tup, now); se != nil {
						out[pi] = recordShadowHit(e.wild, se)
						continue
					}
				}
			}
			out[pi] = Verdict{}
		}
		begin = end
	}
	e.scratch.Put(sc)
	return out
}

// ── Filter control plane ─────────────────────────────────────────────

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Install adds a filter for label until deadline exp, refreshing the
// expiry (and keeping counters) when the label is already present: a
// refresh never shortens a deadline, consumes no capacity and always
// succeeds. A new label first reclaims entries already dead at now;
// if the global budget is still spent, RejectNew returns
// filter.ErrTableFull and EvictSoonest displaces the engine-wide entry
// nearest to expiry. A zero-capacity engine rejects under either policy.
func (e *Engine) Install(label flow.Label, now, exp filter.Time) error {
	label = label.Key()
	seg, isWild := e.segFor(label)

	// Refresh path first: a present label consumes no new capacity and
	// needs no republish — the deadline lives in the shared entry.
	seg.mu.Lock()
	if fe := seg.fview.Load().get(label); fe != nil {
		if exp > fe.expires() {
			fe.exp.Store(int64(exp))
		}
		seg.mu.Unlock()
		return nil
	}
	seg.mu.Unlock()

	// Reclaim dead entries before judging occupancy.
	e.Expire(now)

	cap64 := int64(e.cfg.FilterCapacity)
	for attempt := 0; ; attempt++ {
		used := e.fUsed.Load()
		if used < cap64 {
			if !e.fUsed.CompareAndSwap(used, used+1) {
				continue // raced with another install/remove; retry
			}
			break // slot reserved
		}
		if e.cfg.Evict == filter.RejectNew || e.cfg.FilterCapacity == 0 || attempt >= 8 {
			e.rejected.Add(1)
			return fmt.Errorf("%w (capacity %d)", filter.ErrTableFull, e.cfg.FilterCapacity)
		}
		if !e.evictSoonest() {
			e.rejected.Add(1)
			return fmt.Errorf("%w (capacity %d)", filter.ErrTableFull, e.cfg.FilterCapacity)
		}
		// The eviction freed a slot; loop to claim it.
	}

	seg.mu.Lock()
	if fe := seg.fview.Load().get(label); fe != nil {
		// Lost a race with a concurrent install of the same label.
		if exp > fe.expires() {
			fe.exp.Store(int64(exp))
		}
		seg.mu.Unlock()
		e.fUsed.Add(-1)
		return nil
	}
	fe := &fentry{label: label, installedAt: now}
	fe.exp.Store(int64(exp))
	seg.fcount++
	seg.fview.Store(seg.fview.Load().withInsert(seg.fcount, fe))
	if seg.fcount == 1 || exp < seg.fNext {
		seg.fNext = exp
	}
	if isWild {
		e.wildFilters.Add(1)
	}
	seg.mu.Unlock()
	e.installed.Add(1)
	atomicMax(&e.fPeak, e.fUsed.Load())
	return nil
}

// AdoptFilter re-installs a previously snapshotted entry, preserving
// its original install time, deadline, and per-entry drop counters —
// the restore path after a gateway crash. Capacity and eviction
// semantics match Install, except that nothing is expired first (a
// restore has no "now" of its own); adopting a label that is already
// present only raises its deadline.
func (e *Engine) AdoptFilter(ent filter.Entry) error {
	label := ent.Label.Key()
	seg, isWild := e.segFor(label)

	seg.mu.Lock()
	if fe := seg.fview.Load().get(label); fe != nil {
		if ent.ExpiresAt > fe.expires() {
			fe.exp.Store(int64(ent.ExpiresAt))
		}
		seg.mu.Unlock()
		return nil
	}
	seg.mu.Unlock()

	cap64 := int64(e.cfg.FilterCapacity)
	for attempt := 0; ; attempt++ {
		used := e.fUsed.Load()
		if used < cap64 {
			if !e.fUsed.CompareAndSwap(used, used+1) {
				continue
			}
			break
		}
		if e.cfg.Evict == filter.RejectNew || e.cfg.FilterCapacity == 0 || attempt >= 8 {
			e.rejected.Add(1)
			return fmt.Errorf("%w (capacity %d)", filter.ErrTableFull, e.cfg.FilterCapacity)
		}
		if !e.evictSoonest() {
			e.rejected.Add(1)
			return fmt.Errorf("%w (capacity %d)", filter.ErrTableFull, e.cfg.FilterCapacity)
		}
	}

	seg.mu.Lock()
	if fe := seg.fview.Load().get(label); fe != nil {
		if ent.ExpiresAt > fe.expires() {
			fe.exp.Store(int64(ent.ExpiresAt))
		}
		seg.mu.Unlock()
		e.fUsed.Add(-1)
		return nil
	}
	fe := &fentry{label: label, installedAt: ent.InstalledAt}
	fe.exp.Store(int64(ent.ExpiresAt))
	fe.drops.Store(ent.Drops)
	fe.droppedBytes.Store(ent.DroppedBytes)
	seg.fcount++
	seg.fview.Store(seg.fview.Load().withInsert(seg.fcount, fe))
	if seg.fcount == 1 || ent.ExpiresAt < seg.fNext {
		seg.fNext = ent.ExpiresAt
	}
	if isWild {
		e.wildFilters.Add(1)
	}
	seg.mu.Unlock()
	e.installed.Add(1)
	atomicMax(&e.fPeak, e.fUsed.Load())
	return nil
}

// evictSoonest removes the engine-wide entry closest to expiry,
// reporting whether anything was evicted.
func (e *Engine) evictSoonest() bool {
	var (
		vseg   *shard
		vwild  bool
		vlabel flow.Label
		vexp   filter.Time
		found  bool
	)
	e.allSegs(func(s *shard, wild bool) {
		s.fview.Load().each(func(fe *fentry) {
			if exp := fe.expires(); !found || exp < vexp {
				vseg, vwild, vlabel, vexp, found = s, wild, fe.label, exp, true
			}
		})
	})
	if !found {
		return false
	}
	vseg.mu.Lock()
	fe := vseg.fview.Load().get(vlabel)
	if fe == nil {
		vseg.mu.Unlock()
		return false // raced with expiry/removal; caller retries
	}
	vseg.fcount--
	vseg.fview.Store(vseg.fview.Load().withRemove(vseg.fcount, fe))
	vseg.mu.Unlock()
	if vwild {
		e.wildFilters.Add(-1)
	}
	e.fUsed.Add(-1)
	e.evicted.Add(1)
	return true
}

// removeEntry deletes the filter for label without touching the
// removal-reason counters; Remove and Aggregate attribute the removal
// to the right one. It returns the removed entry's deadline so callers
// can preserve coverage time.
func (e *Engine) removeEntry(label flow.Label) (exp filter.Time, ok bool) {
	seg, isWild := e.segFor(label)
	seg.mu.Lock()
	fe := seg.fview.Load().get(label)
	if fe == nil {
		seg.mu.Unlock()
		return 0, false
	}
	exp = fe.expires()
	seg.fcount--
	seg.fview.Store(seg.fview.Load().withRemove(seg.fcount, fe))
	seg.mu.Unlock()
	if isWild {
		e.wildFilters.Add(-1)
	}
	e.fUsed.Add(-1)
	return exp, true
}

// Remove deletes the filter for label, reporting whether it existed.
func (e *Engine) Remove(label flow.Label) bool {
	if _, ok := e.removeEntry(label.Key()); ok {
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
		if cexp, ok := e.removeEntry(c); ok {
			if cexp > exp {
				exp = cexp
			}
			replaced++
		}
	}
	e.aggregated.Add(uint64(replaced))
	seg, _ := e.segFor(agg)
	existed := seg.fview.Load().get(agg) != nil
	if err := e.Install(agg, now, exp); err != nil {
		return replaced, err
	}
	if !existed {
		// Install charged the new entry to Installed; reattribute it to
		// Aggregates so the Stats occupancy arithmetic stays
		// single-entry.
		e.aggregates.Add(1)
		e.installed.Add(^uint64(0))
	}
	return replaced, nil
}

// Get returns a snapshot of the live filter entry for the exact label.
// Like classification, it reads the published view and takes no locks.
func (e *Engine) Get(label flow.Label, now filter.Time) (filter.Entry, bool) {
	label = label.Key()
	seg, _ := e.segFor(label)
	fe := seg.fview.Load().get(label)
	if fe == nil || fe.expires() <= now {
		return filter.Entry{}, false
	}
	return fe.snapshot(), true
}

// Expire garbage-collects filters whose deadline has passed, returning
// how many were removed across all shards.
func (e *Engine) Expire(now filter.Time) int {
	n := 0
	e.allSegs(func(s *shard, wild bool) {
		s.mu.Lock()
		k := s.expireFilters(now)
		s.mu.Unlock()
		if wild && k > 0 {
			e.wildFilters.Add(int64(-k))
		}
		n += k
	})
	if n > 0 {
		e.fUsed.Add(int64(-n))
		e.expired.Add(uint64(n))
	}
	return n
}

// NextExpiry returns the earliest deadline among installed filters.
func (e *Engine) NextExpiry() (filter.Time, bool) {
	var min filter.Time
	found := false
	e.allSegs(func(s *shard, _ bool) {
		s.fview.Load().each(func(fe *fentry) {
			if exp := fe.expires(); !found || exp < min {
				min, found = exp, true
			}
		})
	})
	return min, found
}

// Len returns the number of installed filters (including entries whose
// deadline has passed but which have not been garbage-collected yet),
// summed across shards.
func (e *Engine) Len() int { return int(e.fUsed.Load()) }

// FilterCapacity returns the global wire-speed filter budget.
func (e *Engine) FilterCapacity() int { return e.cfg.FilterCapacity }

// ShardLen returns the occupancy of one hash shard (excluding the wild
// segment), for accounting tests.
func (e *Engine) ShardLen(i int) int {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fcount
}

// FilterStats aggregates counters across shards into filter.Stats.
func (e *Engine) FilterStats() filter.Stats {
	var drops, bytes uint64
	e.allSegs(func(s *shard, _ bool) {
		drops += s.drops.Load()
		bytes += s.droppedBytes.Load()
	})
	return filter.Stats{
		Installed:     e.installed.Load(),
		Rejected:      e.rejected.Load(),
		Evicted:       e.evicted.Load(),
		Expired:       e.expired.Load(),
		Removed:       e.removed.Load(),
		Aggregates:    e.aggregates.Load(),
		Aggregated:    e.aggregated.Load(),
		Drops:         drops,
		DroppedBytes:  bytes,
		PeakOccupancy: int(e.fPeak.Load()),
	}
}

// FilterEntries returns a merged snapshot of installed filters sorted
// by expiry (soonest first, ties by label text).
func (e *Engine) FilterEntries() []filter.Entry {
	out := make([]filter.Entry, 0, e.Len())
	e.allSegs(func(s *shard, _ bool) {
		s.fview.Load().each(func(fe *fentry) {
			out = append(out, fe.snapshot())
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].ExpiresAt != out[j].ExpiresAt {
			return out[i].ExpiresAt < out[j].ExpiresAt
		}
		return out[i].Label.String() < out[j].Label.String()
	})
	return out
}

// ── Shadow-cache control plane ───────────────────────────────────────

// LogShadow records a filtering request for label until exp, refreshing
// expiry and victim (and keeping counters) when already present. A new
// label first reclaims records already dead at now; it returns false,
// counting a rejection, when the log is still full or has capacity 0.
func (e *Engine) LogShadow(label flow.Label, victim flow.Addr, now, exp filter.Time) bool {
	label = label.Key()
	seg, isWild := e.segFor(label)

	seg.mu.Lock()
	if se := seg.sview.Load().get(label); se != nil {
		if exp > se.expires() {
			se.exp.Store(int64(exp))
		}
		se.victim.Store(uint32(victim))
		seg.mu.Unlock()
		return true
	}
	seg.mu.Unlock()

	e.ExpireShadows(now)

	cap64 := int64(e.cfg.ShadowCapacity)
	for {
		used := e.sUsed.Load()
		if used >= cap64 {
			e.sRejected.Add(1)
			return false
		}
		if e.sUsed.CompareAndSwap(used, used+1) {
			break
		}
	}

	seg.mu.Lock()
	if se := seg.sview.Load().get(label); se != nil {
		if exp > se.expires() {
			se.exp.Store(int64(exp))
		}
		se.victim.Store(uint32(victim))
		seg.mu.Unlock()
		e.sUsed.Add(-1)
		return true
	}
	se := &sentry{label: label, loggedAt: now}
	se.exp.Store(int64(exp))
	se.victim.Store(uint32(victim))
	seg.scount++
	seg.sview.Store(seg.sview.Load().withInsert(seg.scount, se))
	if seg.scount == 1 || exp < seg.sNext {
		seg.sNext = exp
	}
	if isWild {
		e.wildShadows.Add(1)
	}
	seg.mu.Unlock()
	e.sLogged.Add(1)
	atomicMax(&e.sPeak, e.sUsed.Load())
	return true
}

// AdoptShadow re-logs a previously snapshotted shadow entry,
// preserving its logged time, deadline, victim, and reappearance count
// — the restore path after a gateway crash. Returns false when the
// cache is full. (The snapshot's Round field has no engine-side slot;
// the protocol layer carries rounds in its own watch records.)
func (e *Engine) AdoptShadow(ent filter.ShadowEntry) bool {
	label := ent.Label.Key()
	seg, isWild := e.segFor(label)

	seg.mu.Lock()
	if se := seg.sview.Load().get(label); se != nil {
		if ent.ExpiresAt > se.expires() {
			se.exp.Store(int64(ent.ExpiresAt))
		}
		se.victim.Store(uint32(ent.Victim))
		seg.mu.Unlock()
		return true
	}
	seg.mu.Unlock()

	cap64 := int64(e.cfg.ShadowCapacity)
	for {
		used := e.sUsed.Load()
		if used >= cap64 {
			e.sRejected.Add(1)
			return false
		}
		if e.sUsed.CompareAndSwap(used, used+1) {
			break
		}
	}

	seg.mu.Lock()
	if se := seg.sview.Load().get(label); se != nil {
		if ent.ExpiresAt > se.expires() {
			se.exp.Store(int64(ent.ExpiresAt))
		}
		se.victim.Store(uint32(ent.Victim))
		seg.mu.Unlock()
		e.sUsed.Add(-1)
		return true
	}
	se := &sentry{label: label, loggedAt: ent.LoggedAt}
	se.exp.Store(int64(ent.ExpiresAt))
	se.victim.Store(uint32(ent.Victim))
	se.reapp.Store(uint64(ent.Reappearances))
	seg.scount++
	seg.sview.Store(seg.sview.Load().withInsert(seg.scount, se))
	if seg.scount == 1 || ent.ExpiresAt < seg.sNext {
		seg.sNext = ent.ExpiresAt
	}
	if isWild {
		e.wildShadows.Add(1)
	}
	seg.mu.Unlock()
	e.sLogged.Add(1)
	atomicMax(&e.sPeak, e.sUsed.Load())
	return true
}

// ShadowGet returns a snapshot of the live shadow record for the exact
// label, if any. Lock-free, like classification.
func (e *Engine) ShadowGet(label flow.Label, now filter.Time) (filter.ShadowEntry, bool) {
	label = label.Key()
	seg, _ := e.segFor(label)
	se := seg.sview.Load().get(label)
	if se == nil || se.expires() <= now {
		return filter.ShadowEntry{}, false
	}
	return se.snapshot(), true
}

// ShadowHit records a reappearance of the flow logged under label
// (e.g. one reported by the victim rather than observed in-line),
// returning the updated snapshot.
func (e *Engine) ShadowHit(label flow.Label) (filter.ShadowEntry, bool) {
	label = label.Key()
	seg, _ := e.segFor(label)
	se := seg.sview.Load().get(label)
	if se == nil {
		return filter.ShadowEntry{}, false
	}
	se.reapp.Add(1)
	seg.shadowHits.Add(1)
	return se.snapshot(), true
}

// RemoveShadow deletes the record for label, reporting whether it
// existed.
func (e *Engine) RemoveShadow(label flow.Label) bool {
	label = label.Key()
	seg, isWild := e.segFor(label)
	seg.mu.Lock()
	se := seg.sview.Load().get(label)
	if se == nil {
		seg.mu.Unlock()
		return false
	}
	seg.scount--
	seg.sview.Store(seg.sview.Load().withRemove(seg.scount, se))
	seg.mu.Unlock()
	if isWild {
		e.wildShadows.Add(-1)
	}
	e.sUsed.Add(-1)
	return true
}

// ExpireShadows garbage-collects shadow records past their deadline.
func (e *Engine) ExpireShadows(now filter.Time) int {
	n := 0
	e.allSegs(func(s *shard, wild bool) {
		s.mu.Lock()
		k := s.expireShadows(now)
		s.mu.Unlock()
		if wild && k > 0 {
			e.wildShadows.Add(int64(-k))
		}
		n += k
	})
	if n > 0 {
		e.sUsed.Add(int64(-n))
		e.sExpired.Add(uint64(n))
	}
	return n
}

// ShadowLen returns the number of logged shadow records.
func (e *Engine) ShadowLen() int { return int(e.sUsed.Load()) }

// ShadowCapacity returns the global shadow-cache budget.
func (e *Engine) ShadowCapacity() int { return e.cfg.ShadowCapacity }

// ShadowStats aggregates counters across shards.
func (e *Engine) ShadowStats() filter.ShadowStats {
	var hits uint64
	e.allSegs(func(s *shard, _ bool) { hits += s.shadowHits.Load() })
	return filter.ShadowStats{
		Logged:   e.sLogged.Load(),
		Hits:     hits,
		Expired:  e.sExpired.Load(),
		Rejected: e.sRejected.Load(),
		PeakSize: int(e.sPeak.Load()),
	}
}

// ShadowEntries returns a merged snapshot sorted by expiry.
func (e *Engine) ShadowEntries() []filter.ShadowEntry {
	out := make([]filter.ShadowEntry, 0, e.ShadowLen())
	e.allSegs(func(s *shard, _ bool) {
		s.sview.Load().each(func(se *sentry) {
			out = append(out, se.snapshot())
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].ExpiresAt != out[j].ExpiresAt {
			return out[i].ExpiresAt < out[j].ExpiresAt
		}
		return out[i].Label.String() < out[j].Label.String()
	})
	return out
}
