package dataplane

import (
	"math/bits"
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
// successive views). The 16-byte label keeps fentry and sentry in the
// 48-byte size class.
type fentry struct {
	label        flow.Label
	installedAt  filter.Time
	exp          atomic.Int64  // aitf:atomic expiry deadline (filter.Time)
	drops        atomic.Uint64 // aitf:atomic
	droppedBytes atomic.Uint64 // aitf:atomic
}

// key returns the entry's label; with expires it is what the generic
// view needs of an entry (see entry).
func (fe *fentry) key() flow.Label { return fe.label }

// expires returns the entry's current expiry deadline.
func (fe *fentry) expires() filter.Time { return filter.Time(fe.exp.Load()) }

// snapshot converts the entry to the substrate's exported form.
func (fe *fentry) snapshot() filter.Entry {
	return filter.Entry{
		Label:        fe.key(),
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

func (se *sentry) key() flow.Label { return se.label }

func (se *sentry) expires() filter.Time { return filter.Time(se.exp.Load()) }

func (se *sentry) snapshot() filter.ShadowEntry {
	return filter.ShadowEntry{
		Label:         se.key(),
		LoggedAt:      se.loggedAt,
		ExpiresAt:     se.expires(),
		Reappearances: int(se.reapp.Load()),
		Victim:        flow.Addr(se.victim.Load()),
	}
}

// pairWild is the wildcard pattern of the canonical AITF pair label.
const pairWild = flow.WildProto | flow.WildSrcPort | flow.WildDstPort

// shape partitions canonical labels by the index structure that can
// match them. The hierarchy (see match) is: exact → pair probes of the
// main directory, then the destination-keyed directory, then the
// per-prefix-length source directory, then the residual linear scan
// list. Only shapes no index anchors — e.g. FromSource wildcards,
// destination prefixes — fall through to the scan residue, and only the
// wild overflow segment ever holds those.
type shape uint8

const (
	// shapeExact: a fully specified label, found by the exact probe of
	// the main directory.
	shapeExact shape = iota
	// shapePair: the canonical pair label, found by the pair probe.
	shapePair
	// shapeDst: a concrete full destination address anchors the label
	// (wildcard or partially wildcarded elsewhere): the destination
	// directory matches it in O(probes).
	shapeDst
	// shapeSrcPfx: a source prefix anchors the label: the prefix
	// directory matches it with one probe per prefix length present.
	shapeSrcPfx
	// shapeScan: no usable anchor; linear scan residue.
	shapeScan
)

// labelShape classifies a canonical label.
func labelShape(l flow.Label) shape {
	if l.SrcPrefixLen == 0 && l.DstPrefixLen == 0 {
		switch l.Wildcards {
		case 0:
			return shapeExact
		case pairWild:
			return shapePair
		}
	}
	if l.Wildcards&flow.WildSrc == 0 && l.SrcPrefixLen != 0 {
		return shapeSrcPfx
	}
	if l.Wildcards&flow.WildDst == 0 && l.DstPrefixLen == 0 {
		return shapeDst
	}
	return shapeScan
}

// addrHash mixes a single address into a destination-directory key.
//
// aitf:noalloc
func addrHash(a uint32) uint32 { return mix(uint64(a)) }

// pfxHash keys the prefix directory: the source address masked to plen
// bits, and plen itself, so nested prefixes of one address get distinct
// keys.
//
// aitf:noalloc
func pfxHash(src uint32, plen uint8) uint32 {
	return mix(uint64(plen)<<32 | uint64(src&prefixMask(plen)))
}

// mix is the 64→32-bit finalizer behind addrHash and pfxHash.
//
// aitf:noalloc
func mix(h uint64) uint32 {
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

// prefixMask keeps the top plen bits of a 32-bit address.
//
// aitf:noalloc
func prefixMask(plen uint8) uint32 {
	if plen == 0 {
		return 0
	}
	return ^uint32(0) << (32 - plen)
}

// labelHash mixes a canonical label into a main-directory key. It must
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

// bucketLoad is the target average entries per directory bucket: a
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

// ── buckets and views, generic over the entry kind ───────────────────
//
// The filter bank and the shadow log share one storage design: the
// view, its directories and buckets, and every control-plane operation
// on them are generic over the entry pointer. Only the probe loops
// (match, lookup and their exact-label helpers) are written once per
// side: they are the hottest code in the engine, and reaching the
// label and deadline through a type parameter's methods would defeat
// the inlining the concrete loops get.

// entry is what the generic view needs of a filter or shadow record.
type entry interface {
	comparable
	key() flow.Label
	expires() filter.Time
}

// slot is one directory position: the full 32-bit key the directory
// hashes the entry under, then the entry. A probe compares the tag
// first and dereferences the entry only on a tag match.
type slot[P entry] struct {
	tag uint32
	e   P
}

// bucket is one hash bucket of a directory. Readers scan s[:n.Load()].
// The writer (holding the shard lock) appends in place — it writes
// s[n], then publishes n+1, so a reader sees each slot whole or not at
// all — and allocates only when the bucket is full, swapping in a copy
// of double the size. Slots below the published length are never
// written again: removal swaps in a replacement bucket.
type bucket[P entry] struct {
	n atomic.Int32 // aitf:atomic published length
	s []slot[P]    // len(s) is the capacity; s[n:] is unpublished room
}

// directory is a power-of-two array of bucket pointers, indexed by the
// low bits of the slot tags. Its length is fixed per view.
type directory[P entry] []atomic.Pointer[bucket[P]]

// newDirectory builds a directory over slots, keeping their order
// within each bucket and sizing every bucket to its length (room
// appears at the first append).
func newDirectory[P entry](slots []slot[P]) directory[P] {
	if len(slots) == 0 {
		return nil
	}
	d := make(directory[P], bucketsFor(len(slots)))
	mask := uint32(len(d) - 1)
	// The first pass counts each bucket's slots into its (unpublished)
	// length; the second fills s to exactly that length.
	for _, sl := range slots {
		p := &d[sl.tag&mask]
		if p.Load() == nil {
			p.Store(&bucket[P]{})
		}
		p.Load().n.Add(1)
	}
	for _, sl := range slots {
		b := d[sl.tag&mask].Load()
		if b.s == nil {
			b.s = make([]slot[P], 0, b.n.Load())
		}
		b.s = append(b.s, sl)
	}
	return d
}

// add publishes sl at the end of its bucket. Caller holds the writer
// lock.
func (d directory[P]) add(sl slot[P]) {
	p := &d[sl.tag&uint32(len(d)-1)]
	var old []slot[P]
	if b := p.Load(); b != nil {
		n := b.n.Load()
		if int(n) < len(b.s) {
			b.s[n] = sl // past the published length: no reader looks here
			b.n.Store(n + 1)
			return
		}
		old = b.s
	}
	nb := &bucket[P]{s: make([]slot[P], max(1, 2*len(old)))}
	copy(nb.s, old)
	nb.s[len(old)] = sl
	nb.n.Store(int32(len(old) + 1))
	p.Store(nb)
}

// del unpublishes e's slot from the bucket tag selects, swapping in a
// replacement sized to what is left (nil once empty). Caller holds the
// writer lock.
func (d directory[P]) del(tag uint32, e P) {
	p := &d[tag&uint32(len(d)-1)]
	b := p.Load()
	if b == nil {
		return
	}
	old := b.s[:b.n.Load()]
	kept := make([]slot[P], 0, len(old)-1)
	for _, sl := range old {
		if sl.e != e {
			kept = append(kept, sl)
		}
	}
	if len(kept) == 0 {
		p.Store(nil)
		return
	}
	nb := &bucket[P]{s: kept}
	nb.n.Store(int32(len(kept)))
	p.Store(nb)
}

// view is the published snapshot of one shard's filter bank (or shadow
// log), reached lock-free through the shard's view pointer. Directory
// lengths are fixed per view; each directory slot holds an atomic
// pointer to a bucket, so a single-entry control-plane write appends
// to or replaces one bucket per index without copying any directory —
// the RCU grace period is per bucket. Directory resizes, expiry sweeps
// and scan-residue changes build a whole new view and swap the shard's
// view pointer instead. Entry objects are shared across bucket
// generations and views, so the atomic counters inside them never lose
// updates across a swap.
//
// Every entry appears in main, keyed by labelHash, so get and each see
// exactly one copy. Non-exact labels are also indexed by their anchor:
// dst holds dst-anchored shapes keyed by addrHash(dst), pfx holds
// source prefixes keyed by pfxHash(src, plen), and scan is the residue
// of shapes with no anchor.
type view[P entry] struct {
	main directory[P]
	dst  directory[P]
	pfx  directory[P]
	scan []P // immutable per view

	// exact and pair count the entries of each hashed shape; a probe
	// whose count is zero cannot hit and is skipped. plens has bit p
	// set while a /p source prefix is indexed in pfx. Canonical prefix
	// lengths are 1..31, so 32 bits hold them all.
	exact atomic.Int32  // aitf:atomic
	pair  atomic.Int32  // aitf:atomic
	plens atomic.Uint32 // aitf:atomic

	// Writer-only bookkeeping, under the shard's writer lock: entries
	// indexed in dst and pfx, and pfx entries per prefix length (nil
	// while pfx is empty).
	dcount, pcount int32
	perLen         *[32]int32
}

// filterView and shadowView are the two instantiations the shards
// publish.
type (
	filterView = view[*fentry]
	shadowView = view[*sentry]
)

// get returns the entry stored under the exact canonical label, if any.
func (v *view[P]) get(l flow.Label) P {
	var none P
	if len(v.main) == 0 {
		return none
	}
	h := labelHash(l)
	if b := v.main[h&uint32(len(v.main)-1)].Load(); b != nil {
		for _, sl := range b.s[:b.n.Load()] {
			if sl.tag == h && sl.e.key() == l {
				return sl.e
			}
		}
	}
	return none
}

// each visits every entry exactly once, in directory order.
func (v *view[P]) each(fn func(P)) {
	for i := range v.main {
		if b := v.main[i].Load(); b != nil {
			for _, sl := range b.s[:b.n.Load()] {
				fn(sl.e)
			}
		}
	}
}

// buildView constructs a fresh view over the given entries.
func buildView[P entry](entries []P) *view[P] {
	v := &view[P]{}
	if len(entries) == 0 {
		return v
	}
	slots := make([]slot[P], 0, len(entries))
	var dslots, pslots []slot[P]
	var exact, pair int32
	var plens uint32
	for _, e := range entries {
		l := e.key()
		slots = append(slots, slot[P]{labelHash(l), e})
		switch labelShape(l) {
		case shapeExact:
			exact++
		case shapePair:
			pair++
		case shapeDst:
			dslots = append(dslots, slot[P]{addrHash(uint32(l.Dst)), e})
		case shapeSrcPfx:
			pslots = append(pslots, slot[P]{pfxHash(uint32(l.Src), l.SrcPrefixLen), e})
			if v.perLen == nil {
				v.perLen = new([32]int32)
			}
			v.perLen[l.SrcPrefixLen]++
			plens |= 1 << l.SrcPrefixLen
		case shapeScan:
			v.scan = append(v.scan, e)
		}
	}
	v.main, v.dst, v.pfx = newDirectory(slots), newDirectory(dslots), newDirectory(pslots)
	v.dcount, v.pcount = int32(len(dslots)), int32(len(pslots))
	v.exact.Store(exact)
	v.pair.Store(pair)
	v.plens.Store(plens)
	return v
}

// inPlace reports whether v can absorb one more (delta 1) or one
// fewer (delta −1) entry of shape sh in place, newCount being the
// entry count afterwards: no directory resizes and the scan residue
// stays as it is.
func (v *view[P]) inPlace(sh shape, newCount, delta int) bool {
	switch {
	case sh == shapeScan || !bucketsOK(newCount, len(v.main)):
		return false
	case sh == shapeDst:
		return bucketsOK(int(v.dcount)+delta, len(v.dst))
	case sh == shapeSrcPfx:
		return bucketsOK(int(v.pcount)+delta, len(v.pfx))
	}
	return true
}

// withInsert adds e, returning the view the shard must publish: the
// receiver itself after in-place bucket appends or swaps (the common
// case — O(bucketLoad) per index touched), or a freshly built view when
// a directory must resize or the scan residue changes. Caller holds the
// shard's writer lock; newCount is the entry count after the insert.
// Counts are raised after the slots are published, so a reader that
// sees a count also finds the slot.
func (v *view[P]) withInsert(newCount int, e P) *view[P] {
	l := e.key()
	sh := labelShape(l)
	if !v.inPlace(sh, newCount, 1) {
		live := make([]P, 0, newCount)
		v.each(func(x P) { live = append(live, x) })
		return buildView(append(live, e))
	}
	v.main.add(slot[P]{labelHash(l), e})
	switch sh {
	case shapeExact:
		v.exact.Add(1)
	case shapePair:
		v.pair.Add(1)
	case shapeDst:
		v.dcount++
		v.dst.add(slot[P]{addrHash(uint32(l.Dst)), e})
	case shapeSrcPfx:
		v.pcount++
		v.pfx.add(slot[P]{pfxHash(uint32(l.Src), l.SrcPrefixLen), e})
		if v.perLen[l.SrcPrefixLen]++; v.perLen[l.SrcPrefixLen] == 1 {
			v.plens.Or(1 << l.SrcPrefixLen)
		}
	}
	return v
}

// withRemove deletes e, with the same publish contract as withInsert;
// newCount is the entry count after the removal.
func (v *view[P]) withRemove(newCount int, e P) *view[P] {
	l := e.key()
	sh := labelShape(l)
	if !v.inPlace(sh, newCount, -1) {
		live := make([]P, 0, newCount)
		v.each(func(x P) {
			if x != e {
				live = append(live, x)
			}
		})
		return buildView(live)
	}
	v.main.del(labelHash(l), e)
	switch sh {
	case shapeExact:
		v.exact.Add(-1)
	case shapePair:
		v.pair.Add(-1)
	case shapeDst:
		v.dcount--
		v.dst.del(addrHash(uint32(l.Dst)), e)
	case shapeSrcPfx:
		v.pcount--
		v.pfx.del(pfxHash(uint32(l.Src), l.SrcPrefixLen), e)
		if v.perLen[l.SrcPrefixLen]--; v.perLen[l.SrcPrefixLen] == 0 {
			v.plens.And(^uint32(1 << l.SrcPrefixLen))
		}
	}
	return v
}

// ── probe loops, one per side ────────────────────────────────────────

// match finds a live filter covering the tuple, walking the match
// hierarchy: exact probe, pair probe, destination directory, prefix
// directory (present lengths shortest first, each bucket in insertion
// order), scan residue. Lock-free.
//
// aitf:noalloc
func match(v *filterView, exact, pair flow.Label, tup flow.Tuple, now filter.Time) *fentry {
	if v.exact.Load() > 0 {
		if fe := hitF(v.main, exact, now); fe != nil {
			return fe
		}
	}
	if v.pair.Load() > 0 {
		if fe := hitF(v.main, pair, now); fe != nil {
			return fe
		}
	}
	if len(v.dst) > 0 {
		h := addrHash(uint32(tup.Dst))
		if b := v.dst[h&uint32(len(v.dst)-1)].Load(); b != nil {
			for _, sl := range b.s[:b.n.Load()] {
				if sl.tag == h && sl.e.key().Matches(tup) && sl.e.expires() > now {
					return sl.e
				}
			}
		}
	}
	for m := v.plens.Load(); m != 0; m &= m - 1 {
		plen := uint8(bits.TrailingZeros32(m))
		h := pfxHash(uint32(tup.Src), plen)
		if b := v.pfx[h&uint32(len(v.pfx)-1)].Load(); b != nil {
			for _, sl := range b.s[:b.n.Load()] {
				if sl.tag == h && sl.e.label.SrcPrefixLen == plen &&
					sl.e.key().Matches(tup) && sl.e.expires() > now {
					return sl.e
				}
			}
		}
	}
	for _, fe := range v.scan {
		if fe.expires() > now && fe.key().Matches(tup) {
			return fe
		}
	}
	return nil
}

// hitF returns the filter stored under exactly l if it is live at now.
//
// aitf:noalloc
func hitF(d directory[*fentry], l flow.Label, now filter.Time) *fentry {
	h := labelHash(l)
	if b := d[h&uint32(len(d)-1)].Load(); b != nil {
		for _, sl := range b.s[:b.n.Load()] {
			if sl.tag == h && sl.e.label == l {
				if sl.e.expires() > now {
					return sl.e
				}
				return nil
			}
		}
	}
	return nil
}

// lookup finds a live shadow record covering the tuple, walking the
// same match hierarchy as match. Lock-free.
//
// aitf:noalloc
func lookup(v *shadowView, exact, pair flow.Label, tup flow.Tuple, now filter.Time) *sentry {
	if v.exact.Load() > 0 {
		if se := hitS(v.main, exact, now); se != nil {
			return se
		}
	}
	if v.pair.Load() > 0 {
		if se := hitS(v.main, pair, now); se != nil {
			return se
		}
	}
	if len(v.dst) > 0 {
		h := addrHash(uint32(tup.Dst))
		if b := v.dst[h&uint32(len(v.dst)-1)].Load(); b != nil {
			for _, sl := range b.s[:b.n.Load()] {
				if sl.tag == h && sl.e.key().Matches(tup) && sl.e.expires() > now {
					return sl.e
				}
			}
		}
	}
	for m := v.plens.Load(); m != 0; m &= m - 1 {
		plen := uint8(bits.TrailingZeros32(m))
		h := pfxHash(uint32(tup.Src), plen)
		if b := v.pfx[h&uint32(len(v.pfx)-1)].Load(); b != nil {
			for _, sl := range b.s[:b.n.Load()] {
				if sl.tag == h && sl.e.label.SrcPrefixLen == plen &&
					sl.e.key().Matches(tup) && sl.e.expires() > now {
					return sl.e
				}
			}
		}
	}
	for _, se := range v.scan {
		if se.expires() > now && se.key().Matches(tup) {
			return se
		}
	}
	return nil
}

// hitS mirrors hitF for the shadow side.
//
// aitf:noalloc
func hitS(d directory[*sentry], l flow.Label, now filter.Time) *sentry {
	h := labelHash(l)
	if b := d[h&uint32(len(d)-1)].Load(); b != nil {
		for _, sl := range b.s[:b.n.Load()] {
			if sl.tag == h && sl.e.label == l {
				if sl.e.expires() > now {
					return sl.e
				}
				return nil
			}
		}
	}
	return nil
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

// noFilters and noShadows are the views every shard starts from. An
// empty view is never written — the first insert rebuilds — so all
// shards share the same two.
var (
	noFilters = &filterView{}
	noShadows = &shadowView{}
)

func newShard() *shard {
	s := &shard{}
	s.fview.Store(noFilters)
	s.sview.Store(noShadows)
	return s
}

// expireFilters garbage-collects dead filters, rebuilding and swapping
// the snapshot when anything died. Caller holds s.mu. The fNext hint
// makes the nothing-due case O(1).
func (s *shard) expireFilters(now filter.Time) int {
	return expire(&s.fview, &s.fcount, &s.fNext, now)
}

// expireShadows garbage-collects dead shadow records the same way.
// Caller holds s.mu.
func (s *shard) expireShadows(now filter.Time) int {
	return expire(&s.sview, &s.scount, &s.sNext, now)
}

// expire is the sweep behind expireFilters and expireShadows: when the
// earliest deadline next has passed, it publishes a view of the entries
// still live, updates count and next, and returns how many died.
func expire[P entry](pv *atomic.Pointer[view[P]], count *int, next *filter.Time, now filter.Time) int {
	if *count == 0 || now < *next {
		return 0
	}
	live := make([]P, 0, *count)
	first := true
	pv.Load().each(func(e P) {
		exp := e.expires()
		if exp <= now {
			return
		}
		live = append(live, e)
		if first || exp < *next {
			*next, first = exp, false
		}
	})
	n := *count - len(live)
	if n == 0 {
		return 0
	}
	pv.Store(buildView(live))
	*count = len(live)
	return n
}
