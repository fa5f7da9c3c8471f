package dataplane

import (
	"sync"
	"sync/atomic"

	"aitf/internal/filter"
	"aitf/internal/flow"
)

// fentry is one installed wire-speed filter. The label and install time
// are immutable after the entry is published; the expiry deadline is
// atomic because Install refreshes it in place while lock-free readers
// are consulting a published snapshot; drop counters are atomic so the
// classification path never needs exclusive access and accounting
// survives snapshot swaps (the entry object itself is shared between
// successive views).
type fentry struct {
	label        flow.Label
	installedAt  filter.Time
	exp          atomic.Int64  // aitf:atomic expiry deadline (filter.Time)
	drops        atomic.Uint64 // aitf:atomic
	droppedBytes atomic.Uint64 // aitf:atomic
}

// expires returns the entry's current expiry deadline.
func (fe *fentry) expires() filter.Time { return filter.Time(fe.exp.Load()) }

// snapshot converts the entry to the substrate's exported form.
func (fe *fentry) snapshot() filter.Entry {
	return filter.Entry{
		Label:        fe.label,
		InstalledAt:  fe.installedAt,
		ExpiresAt:    fe.expires(),
		Drops:        fe.drops.Load(),
		DroppedBytes: fe.droppedBytes.Load(),
	}
}

// sentry is one DRAM shadow-cache record (a remembered filtering
// request). Expiry, victim, and reappearance count are atomic for the
// same reasons as fentry's fields: LogShadow refreshes them in place
// under the writer lock while snapshot readers run.
type sentry struct {
	label    flow.Label
	loggedAt filter.Time
	exp      atomic.Int64  // aitf:atomic expiry deadline (filter.Time)
	victim   atomic.Uint32 // aitf:atomic flow.Addr
	reapp    atomic.Uint64 // aitf:atomic
}

func (se *sentry) expires() filter.Time { return filter.Time(se.exp.Load()) }

func (se *sentry) snapshot() filter.ShadowEntry {
	return filter.ShadowEntry{
		Label:         se.label,
		LoggedAt:      se.loggedAt,
		ExpiresAt:     se.expires(),
		Reappearances: int(se.reapp.Load()),
		Victim:        flow.Addr(se.victim.Load()),
	}
}

// pairWild is the wildcard pattern of the canonical AITF pair label.
const pairWild = flow.WildProto | flow.WildSrcPort | flow.WildDstPort

// shape partitions canonical labels by the index structure that can
// match them. The hierarchy (see filterView.match) is: exact → pair
// hash probes, then the destination-anchored secondary index, then the
// source-prefix trie, then the residual linear scan list. Only shapes
// no index anchors — e.g. FromSource wildcards, destination prefixes —
// fall through to the scan residue, and only the wild overflow segment
// ever holds those.
type shape uint8

const (
	// shapeHash: exact or canonical pair label, found by the main
	// bucket probes alone.
	shapeHash shape = iota
	// shapeDst: a concrete full destination address anchors the label
	// (wildcard or partially wildcarded elsewhere): the per-destination
	// secondary hash index matches it in O(probes).
	shapeDst
	// shapeSrcPfx: a source prefix anchors the label: the compressed
	// binary trie matches it in O(32-bit depth).
	shapeSrcPfx
	// shapeScan: no usable anchor; linear scan residue.
	shapeScan
)

// labelShape classifies a canonical label.
func labelShape(l flow.Label) shape {
	if l.SrcPrefixLen == 0 && l.DstPrefixLen == 0 &&
		(l.Wildcards == 0 || l.Wildcards == pairWild) {
		return shapeHash
	}
	if l.Wildcards&flow.WildSrc == 0 && l.SrcPrefixLen != 0 {
		return shapeSrcPfx
	}
	if l.Wildcards&flow.WildDst == 0 && l.DstPrefixLen == 0 {
		return shapeDst
	}
	return shapeScan
}

// addrHash mixes a single address into a destination-index bucket.
//
// aitf:noalloc
func addrHash(a uint32) uint32 {
	h := uint64(a) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

// labelHash mixes a canonical label into a bucket index. It must
// disperse labels that differ only in ports/proto/wildcards/prefix
// lengths, since the per-pair hash of Engine.shardIdx has already
// consumed the (src, dst) entropy by the time a label reaches a shard's
// view.
//
// aitf:noalloc
func labelHash(l flow.Label) uint32 {
	h := uint64(l.Src)<<32 | uint64(l.Dst)
	h ^= uint64(l.Proto)<<40 | uint64(l.SrcPort)<<24 | uint64(l.DstPort)<<8 | uint64(l.Wildcards)
	h ^= uint64(l.SrcPrefixLen)<<56 | uint64(l.DstPrefixLen)<<48
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// bucketLoad is the target average entries per view bucket: the bucket
// directory doubles beyond it. It bounds the copy-on-write cost of one
// control-plane write to O(bucketLoad + directory), independent of how
// many filters the shard holds.
const bucketLoad = 8

// bucketsFor sizes a bucket directory for n entries.
func bucketsFor(n int) int {
	b := 1
	for n > bucketLoad*b {
		b <<= 1
	}
	return b
}

// bucketsOK reports whether a directory of b buckets may keep serving
// count entries. Growth triggers exactly at the load limit; shrinking
// waits until the load falls below a quarter of it, so a workload
// churning at a size boundary does not rebuild the view on every op.
func bucketsOK(count, b int) bool {
	if b == 0 {
		return count == 0
	}
	return count <= bucketLoad*b && (b == 1 || count*4 > bucketLoad*b)
}

// ── filter view ──────────────────────────────────────────────────────

// fbucket is one hash bucket of a view: a small immutable array of
// (label, entry) pairs probed by linear label compare — for at most
// bucketLoad-ish entries that beats a map probe (no second hash of the
// label, and the labels sit in contiguous memory). Buckets are never
// mutated after they are stored into a directory slot; writers build a
// replacement and swap the slot pointer.
type fbucket = []fslot

// fslot inlines the label next to its entry pointer so a probe only
// dereferences the entry on a label match.
type fslot struct {
	label flow.Label
	fe    *fentry
}

// filterView is the published snapshot of one shard's filter bank,
// reached lock-free through shard.fview. The bucket directory is
// immutable per view; each slot holds an atomic pointer to an
// immutable bucket map, so a single-entry control-plane write replaces
// exactly one small bucket (O(bucketLoad)) without copying the
// directory — the RCU grace period is per bucket. Directory resizes,
// expiry sweeps, and scan-residue changes build a whole new view and
// swap the shard's view pointer instead. Entry objects are shared
// across bucket generations and views, so the atomic counters inside
// them never lose updates across a swap.
//
// Non-exact labels live in secondary indexes alongside their main
// bucket: dst is a destination-keyed hash directory for dst-anchored
// shapes (same per-slot swap discipline as the main directory), trie is
// the source-prefix LPM trie (writers path-copy and swap the root), and
// scan is the residue of shapes with no anchor. Every entry appears in
// its main bucket regardless of shape, so get/each see exactly one copy.
type filterView struct {
	buckets []atomic.Pointer[fbucket]    // aitf:atomic
	dst     []atomic.Pointer[fbucket]    // aitf:atomic
	dcount  int                          // live entries indexed by dst, maintained under the writer lock
	trie    atomic.Pointer[tnode[fslot]] // aitf:atomic
	scan    []*fentry                    // entries matchable only by linear scan; immutable per view
}

// get returns the entry stored under the exact canonical label, if any.
//
// aitf:noalloc
func (v *filterView) get(l flow.Label) *fentry {
	if len(v.buckets) == 0 {
		return nil
	}
	if bp := v.buckets[labelHash(l)&uint32(len(v.buckets)-1)].Load(); bp != nil {
		for i := range *bp {
			if (*bp)[i].label == l {
				return (*bp)[i].fe
			}
		}
	}
	return nil
}

// match finds a live filter covering the tuple, walking the match
// hierarchy: exact probe, pair probe, destination index, source-prefix
// trie, scan residue. Lock-free.
//
// aitf:noalloc
func (v *filterView) match(exact, pair flow.Label, tup flow.Tuple, now filter.Time) *fentry {
	if len(v.buckets) > 0 {
		mask := uint32(len(v.buckets) - 1)
		if bp := v.buckets[labelHash(exact)&mask].Load(); bp != nil {
			for i := range *bp {
				if (*bp)[i].label == exact {
					if fe := (*bp)[i].fe; fe.expires() > now {
						return fe
					}
					break
				}
			}
		}
		if bp := v.buckets[labelHash(pair)&mask].Load(); bp != nil {
			for i := range *bp {
				if (*bp)[i].label == pair {
					if fe := (*bp)[i].fe; fe.expires() > now {
						return fe
					}
					break
				}
			}
		}
	}
	if len(v.dst) > 0 {
		if bp := v.dst[addrHash(uint32(tup.Dst))&uint32(len(v.dst)-1)].Load(); bp != nil {
			for i := range *bp {
				if fe := (*bp)[i].fe; (*bp)[i].label.Matches(tup) && fe.expires() > now {
					return fe
				}
			}
		}
	}
	if n := v.trie.Load(); n != nil {
		if fe := trieMatchF(n, tup, now); fe != nil {
			return fe
		}
	}
	for _, fe := range v.scan {
		if fe.expires() > now && fe.label.Matches(tup) {
			return fe
		}
	}
	return nil
}

// each visits every entry exactly once (scan-shaped entries also live
// in their bucket).
func (v *filterView) each(fn func(*fentry)) {
	for i := range v.buckets {
		if bp := v.buckets[i].Load(); bp != nil {
			for j := range *bp {
				fn((*bp)[j].fe)
			}
		}
	}
}

// buildFilterView constructs a fresh view over the given entries.
func buildFilterView(entries []*fentry) *filterView {
	v := &filterView{}
	if len(entries) == 0 {
		return v
	}
	nb := bucketsFor(len(entries))
	v.buckets = make([]atomic.Pointer[fbucket], nb)
	mask := uint32(nb - 1)
	tmp := make([]fbucket, nb)
	var dslots []fslot
	var root *tnode[fslot]
	for _, fe := range entries {
		bi := labelHash(fe.label) & mask
		tmp[bi] = append(tmp[bi], fslot{fe.label, fe})
		switch labelShape(fe.label) {
		case shapeDst:
			dslots = append(dslots, fslot{fe.label, fe})
		case shapeSrcPfx:
			root = trieInsert(root, uint32(fe.label.Src), fe.label.SrcPrefixLen, fslot{fe.label, fe})
		case shapeScan:
			v.scan = append(v.scan, fe)
		}
	}
	for i := range tmp {
		if len(tmp[i]) > 0 {
			b := tmp[i]
			v.buckets[i].Store(&b)
		}
	}
	v.trie.Store(root)
	if len(dslots) > 0 {
		v.dcount = len(dslots)
		nd := bucketsFor(v.dcount)
		v.dst = make([]atomic.Pointer[fbucket], nd)
		dtmp := make([]fbucket, nd)
		dmask := uint32(nd - 1)
		for _, sl := range dslots {
			di := addrHash(uint32(sl.label.Dst)) & dmask
			dtmp[di] = append(dtmp[di], sl)
		}
		for i := range dtmp {
			if len(dtmp[i]) > 0 {
				b := dtmp[i]
				v.dst[i].Store(&b)
			}
		}
	}
	return v
}

// withInsert adds fe, returning the view the shard must publish: the
// receiver itself after in-place slot/root swaps (the common case —
// O(bucketLoad) for hash- and dst-shaped labels, O(depth) for prefix
// labels), or a freshly built view when a directory must resize or the
// scan residue changes. Caller holds the shard's writer lock; newCount
// is the entry count after the insert.
func (v *filterView) withInsert(newCount int, fe *fentry) *filterView {
	sh := labelShape(fe.label)
	if sh == shapeScan || !bucketsOK(newCount, len(v.buckets)) ||
		(sh == shapeDst && !bucketsOK(v.dcount+1, len(v.dst))) {
		live := make([]*fentry, 0, newCount)
		v.each(func(e *fentry) { live = append(live, e) })
		return buildFilterView(append(live, fe))
	}
	slot := &v.buckets[labelHash(fe.label)&uint32(len(v.buckets)-1)]
	var nb fbucket
	if bp := slot.Load(); bp != nil {
		nb = make(fbucket, len(*bp), len(*bp)+1)
		copy(nb, *bp)
	}
	nb = append(nb, fslot{fe.label, fe})
	slot.Store(&nb)
	switch sh {
	case shapeDst:
		v.dcount++
		dslot := &v.dst[addrHash(uint32(fe.label.Dst))&uint32(len(v.dst)-1)]
		var db fbucket
		if bp := dslot.Load(); bp != nil {
			db = make(fbucket, len(*bp), len(*bp)+1)
			copy(db, *bp)
		}
		db = append(db, fslot{fe.label, fe})
		dslot.Store(&db)
	case shapeSrcPfx:
		v.trie.Store(trieInsert(v.trie.Load(),
			uint32(fe.label.Src), fe.label.SrcPrefixLen, fslot{fe.label, fe}))
	}
	return v
}

// withRemove deletes fe, with the same publish contract as withInsert;
// newCount is the entry count after the removal.
func (v *filterView) withRemove(newCount int, fe *fentry) *filterView {
	sh := labelShape(fe.label)
	if sh == shapeScan || !bucketsOK(newCount, len(v.buckets)) ||
		(sh == shapeDst && !bucketsOK(v.dcount-1, len(v.dst))) {
		live := make([]*fentry, 0, newCount)
		v.each(func(e *fentry) {
			if e != fe {
				live = append(live, e)
			}
		})
		return buildFilterView(live)
	}
	slot := &v.buckets[labelHash(fe.label)&uint32(len(v.buckets)-1)]
	if old := slot.Load(); old != nil {
		if len(*old) <= 1 {
			slot.Store(nil)
		} else {
			nb := make(fbucket, 0, len(*old)-1)
			for i := range *old {
				if (*old)[i].fe != fe {
					nb = append(nb, (*old)[i])
				}
			}
			slot.Store(&nb)
		}
	}
	switch sh {
	case shapeDst:
		v.dcount--
		dslot := &v.dst[addrHash(uint32(fe.label.Dst))&uint32(len(v.dst)-1)]
		if old := dslot.Load(); old != nil {
			if len(*old) <= 1 {
				dslot.Store(nil)
			} else {
				db := make(fbucket, 0, len(*old)-1)
				for i := range *old {
					if (*old)[i].fe != fe {
						db = append(db, (*old)[i])
					}
				}
				dslot.Store(&db)
			}
		}
	case shapeSrcPfx:
		v.trie.Store(trieRemove(v.trie.Load(),
			uint32(fe.label.Src), fe.label.SrcPrefixLen,
			func(s fslot) bool { return s.fe == fe }))
	}
	return v
}

// ── shadow view (same structure for sentry) ──────────────────────────
//
// shadowView deliberately hand-mirrors filterView rather than sharing
// a generic implementation: the probe loops are the hottest code in
// the engine, and dispatching label()/expires() through a type-param
// interface would defeat the inlining the flat versions get. (The trie
// in trie.go shares its *structure* generically — insert/remove are
// control-plane — but its probe loops are likewise hand-mirrored.)
// Any change to the publish contract (bucketsOK hysteresis, shape
// classification, dst-index/trie maintenance, scan rebuild rule,
// slot-swap discipline) MUST be applied to both copies.

// sbucket is one hash bucket of a shadow view; see fbucket.
type sbucket = []sslot

// sslot inlines the label next to its record pointer; see fslot.
type sslot struct {
	label flow.Label
	se    *sentry
}

// shadowView is the published snapshot structure for the shadow cache
// segment; see filterView for the per-bucket RCU discipline and the
// secondary-index layout.
type shadowView struct {
	buckets []atomic.Pointer[sbucket] // aitf:atomic
	dst     []atomic.Pointer[sbucket] // aitf:atomic
	dcount  int
	trie    atomic.Pointer[tnode[sslot]] // aitf:atomic
	scan    []*sentry
}

func (v *shadowView) get(l flow.Label) *sentry {
	if len(v.buckets) == 0 {
		return nil
	}
	if bp := v.buckets[labelHash(l)&uint32(len(v.buckets)-1)].Load(); bp != nil {
		for i := range *bp {
			if (*bp)[i].label == l {
				return (*bp)[i].se
			}
		}
	}
	return nil
}

// lookup finds a live shadow record covering the tuple, walking the
// same match hierarchy as filterView.match. Lock-free.
//
// aitf:noalloc
func (v *shadowView) lookup(exact, pair flow.Label, tup flow.Tuple, now filter.Time) *sentry {
	if len(v.buckets) > 0 {
		mask := uint32(len(v.buckets) - 1)
		if bp := v.buckets[labelHash(exact)&mask].Load(); bp != nil {
			for i := range *bp {
				if (*bp)[i].label == exact {
					if se := (*bp)[i].se; se.expires() > now {
						return se
					}
					break
				}
			}
		}
		if bp := v.buckets[labelHash(pair)&mask].Load(); bp != nil {
			for i := range *bp {
				if (*bp)[i].label == pair {
					if se := (*bp)[i].se; se.expires() > now {
						return se
					}
					break
				}
			}
		}
	}
	if len(v.dst) > 0 {
		if bp := v.dst[addrHash(uint32(tup.Dst))&uint32(len(v.dst)-1)].Load(); bp != nil {
			for i := range *bp {
				if se := (*bp)[i].se; (*bp)[i].label.Matches(tup) && se.expires() > now {
					return se
				}
			}
		}
	}
	if n := v.trie.Load(); n != nil {
		if se := trieMatchS(n, tup, now); se != nil {
			return se
		}
	}
	for _, se := range v.scan {
		if se.expires() > now && se.label.Matches(tup) {
			return se
		}
	}
	return nil
}

func (v *shadowView) each(fn func(*sentry)) {
	for i := range v.buckets {
		if bp := v.buckets[i].Load(); bp != nil {
			for j := range *bp {
				fn((*bp)[j].se)
			}
		}
	}
}

func buildShadowView(entries []*sentry) *shadowView {
	v := &shadowView{}
	if len(entries) == 0 {
		return v
	}
	nb := bucketsFor(len(entries))
	v.buckets = make([]atomic.Pointer[sbucket], nb)
	mask := uint32(nb - 1)
	tmp := make([]sbucket, nb)
	var dslots []sslot
	var root *tnode[sslot]
	for _, se := range entries {
		bi := labelHash(se.label) & mask
		tmp[bi] = append(tmp[bi], sslot{se.label, se})
		switch labelShape(se.label) {
		case shapeDst:
			dslots = append(dslots, sslot{se.label, se})
		case shapeSrcPfx:
			root = trieInsert(root, uint32(se.label.Src), se.label.SrcPrefixLen, sslot{se.label, se})
		case shapeScan:
			v.scan = append(v.scan, se)
		}
	}
	for i := range tmp {
		if len(tmp[i]) > 0 {
			b := tmp[i]
			v.buckets[i].Store(&b)
		}
	}
	v.trie.Store(root)
	if len(dslots) > 0 {
		v.dcount = len(dslots)
		nd := bucketsFor(v.dcount)
		v.dst = make([]atomic.Pointer[sbucket], nd)
		dtmp := make([]sbucket, nd)
		dmask := uint32(nd - 1)
		for _, sl := range dslots {
			di := addrHash(uint32(sl.label.Dst)) & dmask
			dtmp[di] = append(dtmp[di], sl)
		}
		for i := range dtmp {
			if len(dtmp[i]) > 0 {
				b := dtmp[i]
				v.dst[i].Store(&b)
			}
		}
	}
	return v
}

// withInsert / withRemove follow filterView's publish contract.
func (v *shadowView) withInsert(newCount int, se *sentry) *shadowView {
	sh := labelShape(se.label)
	if sh == shapeScan || !bucketsOK(newCount, len(v.buckets)) ||
		(sh == shapeDst && !bucketsOK(v.dcount+1, len(v.dst))) {
		live := make([]*sentry, 0, newCount)
		v.each(func(e *sentry) { live = append(live, e) })
		return buildShadowView(append(live, se))
	}
	slot := &v.buckets[labelHash(se.label)&uint32(len(v.buckets)-1)]
	var nb sbucket
	if bp := slot.Load(); bp != nil {
		nb = make(sbucket, len(*bp), len(*bp)+1)
		copy(nb, *bp)
	}
	nb = append(nb, sslot{se.label, se})
	slot.Store(&nb)
	switch sh {
	case shapeDst:
		v.dcount++
		dslot := &v.dst[addrHash(uint32(se.label.Dst))&uint32(len(v.dst)-1)]
		var db sbucket
		if bp := dslot.Load(); bp != nil {
			db = make(sbucket, len(*bp), len(*bp)+1)
			copy(db, *bp)
		}
		db = append(db, sslot{se.label, se})
		dslot.Store(&db)
	case shapeSrcPfx:
		v.trie.Store(trieInsert(v.trie.Load(),
			uint32(se.label.Src), se.label.SrcPrefixLen, sslot{se.label, se}))
	}
	return v
}

func (v *shadowView) withRemove(newCount int, se *sentry) *shadowView {
	sh := labelShape(se.label)
	if sh == shapeScan || !bucketsOK(newCount, len(v.buckets)) ||
		(sh == shapeDst && !bucketsOK(v.dcount-1, len(v.dst))) {
		live := make([]*sentry, 0, newCount)
		v.each(func(e *sentry) {
			if e != se {
				live = append(live, e)
			}
		})
		return buildShadowView(live)
	}
	slot := &v.buckets[labelHash(se.label)&uint32(len(v.buckets)-1)]
	if old := slot.Load(); old != nil {
		if len(*old) <= 1 {
			slot.Store(nil)
		} else {
			nb := make(sbucket, 0, len(*old)-1)
			for i := range *old {
				if (*old)[i].se != se {
					nb = append(nb, (*old)[i])
				}
			}
			slot.Store(&nb)
		}
	}
	switch sh {
	case shapeDst:
		v.dcount--
		dslot := &v.dst[addrHash(uint32(se.label.Dst))&uint32(len(v.dst)-1)]
		if old := dslot.Load(); old != nil {
			if len(*old) <= 1 {
				dslot.Store(nil)
			} else {
				db := make(sbucket, 0, len(*old)-1)
				for i := range *old {
					if (*old)[i].se != se {
						db = append(db, (*old)[i])
					}
				}
				dslot.Store(&db)
			}
		}
	case shapeSrcPfx:
		v.trie.Store(trieRemove(v.trie.Load(),
			uint32(se.label.Src), se.label.SrcPrefixLen,
			func(s sslot) bool { return s.se == se }))
	}
	return v
}

// ── shard ────────────────────────────────────────────────────────────

// shard is one hash partition of the data plane: a segment of the
// wire-speed filter bank plus the matching segment of the shadow cache.
//
// All state readers see lives in the published fview/sview snapshots;
// there is no separate canonical map. The mutex is a pure writer lock:
// the control plane (install / remove / expire / log) holds it while
// deriving and swapping in the next snapshot — an RCU-style
// build-and-swap in which in-flight readers simply finish against the
// old view. Classification and all inspection APIs are lock-free.
type shard struct {
	mu     sync.Mutex
	fcount int // entries in fview, guarded by mu
	scount int // entries in sview, guarded by mu

	fview atomic.Pointer[filterView] // aitf:atomic RCU: readers Load a published view, writers build-and-swap
	sview atomic.Pointer[shadowView] // aitf:atomic RCU

	// fNext / sNext are the earliest deadlines among this shard's
	// entries (valid only while the corresponding count is non-zero);
	// they let expiry passes return O(1) when nothing is due, so the
	// control plane can garbage-collect eagerly without O(n) rescans.
	// Guarded by mu.
	fNext filter.Time
	sNext filter.Time

	// Hot-path counters live per shard (summed by Engine.FilterStats /
	// ShadowStats) so classification on different shards never bounces
	// a shared stats cache line — a single global counter would cap
	// multi-core scaling no matter how many shards exist.
	drops        atomic.Uint64 // aitf:atomic
	droppedBytes atomic.Uint64 // aitf:atomic
	shadowHits   atomic.Uint64 // aitf:atomic
}

func newShard() *shard {
	s := &shard{}
	s.fview.Store(&filterView{})
	s.sview.Store(&shadowView{})
	return s
}

// expireFilters garbage-collects dead filters, rebuilding and swapping
// the snapshot when anything died. Caller holds s.mu. The fNext hint
// makes the nothing-due case O(1).
func (s *shard) expireFilters(now filter.Time) int {
	if s.fcount == 0 || now < s.fNext {
		return 0
	}
	v := s.fview.Load()
	live := make([]*fentry, 0, s.fcount)
	var next filter.Time
	first := true
	v.each(func(fe *fentry) {
		exp := fe.expires()
		if exp <= now {
			return
		}
		live = append(live, fe)
		if first || exp < next {
			next, first = exp, false
		}
	})
	s.fNext = next
	n := s.fcount - len(live)
	if n == 0 {
		return 0
	}
	s.fview.Store(buildFilterView(live))
	s.fcount = len(live)
	return n
}

// expireShadows garbage-collects dead shadow records, rebuilding and
// swapping the snapshot when anything died. Caller holds s.mu.
func (s *shard) expireShadows(now filter.Time) int {
	if s.scount == 0 || now < s.sNext {
		return 0
	}
	v := s.sview.Load()
	live := make([]*sentry, 0, s.scount)
	var next filter.Time
	first := true
	v.each(func(se *sentry) {
		exp := se.expires()
		if exp <= now {
			return
		}
		live = append(live, se)
		if first || exp < next {
			next, first = exp, false
		}
	})
	s.sNext = next
	n := s.scount - len(live)
	if n == 0 {
		return 0
	}
	s.sview.Store(buildShadowView(live))
	s.scount = len(live)
	return n
}
