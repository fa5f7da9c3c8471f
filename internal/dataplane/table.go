package dataplane

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"aitf/internal/filter"
	"aitf/internal/flow"
)

// ── one record, one walk, two tables ─────────────────────────────────
//
// The wire-speed filter bank and the DRAM shadow log are the same
// thing: a bounded table of flow labels with deadlines. They differ
// only in how long an entry lasts and what its counters mean, so both
// are instances of table, hold the same record, publish the same view
// and are matched by the same probe walk.

// record is one entry of either table: an installed filter or a logged
// filtering request. The label and the write time (install or log) are
// immutable once the record is published. The deadline is atomic
// because a refresh raises it in place while lock-free readers consult
// a published view; the counters are atomic so classification never
// needs exclusive access, and successive views share the record, so no
// update is lost across a swap. hits counts a filter's drops or a
// shadow's reappearances; word holds a filter's dropped bytes or a
// shadow's victim address. The 16-byte label keeps the record in the
// 48-byte size class (TestRecordSize).
type record struct {
	label flow.Label
	at    filter.Time
	exp   atomic.Int64  // aitf:atomic expiry deadline (filter.Time)
	hits  atomic.Uint64 // aitf:atomic
	word  atomic.Uint64 // aitf:atomic
}

// expires returns the record's current deadline.
func (r *record) expires() filter.Time { return filter.Time(r.exp.Load()) }

// entry reads the record in the filter bank's exported form. A shadow
// record reads the same way, its reappearances as Drops and its victim
// as DroppedBytes; toShadow renames them.
func (r *record) entry() filter.Entry {
	return filter.Entry{Label: r.label, InstalledAt: r.at, ExpiresAt: r.expires(),
		Drops: r.hits.Load(), DroppedBytes: r.word.Load()}
}

// toShadow converts a shadow record's entry form to the shadow log's
// exported form; fromShadow is its inverse.
func toShadow(en filter.Entry) filter.ShadowEntry {
	return filter.ShadowEntry{Label: en.Label, LoggedAt: en.InstalledAt, ExpiresAt: en.ExpiresAt,
		Reappearances: int(en.Drops), Victim: flow.Addr(en.DroppedBytes)}
}

func fromShadow(se filter.ShadowEntry) filter.Entry {
	return filter.Entry{Label: se.Label, InstalledAt: se.LoggedAt, ExpiresAt: se.ExpiresAt,
		Drops: uint64(se.Reappearances), DroppedBytes: uint64(se.Victim)}
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
// lengths, since the per-pair hash of shardIdx has already consumed the
// (src, dst) entropy by the time a label reaches a shard's view.
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

// shardIdx hashes a (src, dst) pair to one of mask+1 hash shards.
func shardIdx(src, dst flow.Addr, mask uint32) uint32 {
	h := uint64(src)<<32 | uint64(dst)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h) & mask
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

// ── buckets and views ────────────────────────────────────────────────

// slot is one directory position: the full 32-bit key the directory
// hashes the record under, then the record. A probe compares the tag
// first and dereferences the record only on a tag match.
type slot struct {
	tag uint32
	r   *record
}

// bucket is one hash bucket of a directory. Readers scan s[:n.Load()].
// The writer (holding the segment lock) appends in place — it writes
// s[n], then publishes n+1, so a reader sees each slot whole or not at
// all — and allocates only when the bucket is full, swapping in a copy
// of double the size. Slots below the published length are never
// written again: removal swaps in a replacement bucket.
type bucket struct {
	n atomic.Int32 // aitf:atomic published length
	s []slot       // len(s) is the capacity; s[n:] is unpublished room
}

// directory is a power-of-two array of bucket pointers, indexed by the
// low bits of the slot tags. Its length is fixed per view.
type directory []atomic.Pointer[bucket]

// newDirectory builds a directory over slots, keeping their order
// within each bucket and sizing every bucket to its length (room
// appears at the first append).
func newDirectory(slots []slot) directory {
	if len(slots) == 0 {
		return nil
	}
	d := make(directory, bucketsFor(len(slots)))
	mask := uint32(len(d) - 1)
	// The first pass counts each bucket's slots into its (unpublished)
	// length; the second fills s to exactly that length.
	for _, sl := range slots {
		p := &d[sl.tag&mask]
		if p.Load() == nil {
			p.Store(&bucket{})
		}
		p.Load().n.Add(1)
	}
	for _, sl := range slots {
		b := d[sl.tag&mask].Load()
		if b.s == nil {
			b.s = make([]slot, 0, b.n.Load())
		}
		b.s = append(b.s, sl)
	}
	return d
}

// add publishes sl at the end of its bucket. Caller holds the writer
// lock.
func (d directory) add(sl slot) {
	p := &d[sl.tag&uint32(len(d)-1)]
	var old []slot
	if b := p.Load(); b != nil {
		n := b.n.Load()
		if int(n) < len(b.s) {
			b.s[n] = sl // past the published length: no reader looks here
			b.n.Store(n + 1)
			return
		}
		old = b.s
	}
	nb := &bucket{s: make([]slot, max(1, 2*len(old)))}
	copy(nb.s, old)
	nb.s[len(old)] = sl
	nb.n.Store(int32(len(old) + 1))
	p.Store(nb)
}

// del unpublishes r's slot from the bucket tag selects, swapping in a
// replacement sized to what is left (nil once empty). Caller holds the
// writer lock.
func (d directory) del(tag uint32, r *record) {
	p := &d[tag&uint32(len(d)-1)]
	b := p.Load()
	if b == nil {
		return
	}
	old := b.s[:b.n.Load()]
	kept := make([]slot, 0, len(old)-1)
	for _, sl := range old {
		if sl.r != r {
			kept = append(kept, sl)
		}
	}
	if len(kept) == 0 {
		p.Store(nil)
		return
	}
	nb := &bucket{s: kept}
	nb.n.Store(int32(len(kept)))
	p.Store(nb)
}

// find is the exact-label probe: it returns the record stored under
// exactly l, live or not. d must be non-empty.
//
// aitf:noalloc
func (d directory) find(l flow.Label) *record {
	h := labelHash(l)
	if b := d[h&uint32(len(d)-1)].Load(); b != nil {
		for _, sl := range b.s[:b.n.Load()] {
			if sl.tag == h && sl.r.label == l {
				return sl.r
			}
		}
	}
	return nil
}

// view is the published snapshot of one segment of a table, reached
// lock-free through the segment's view pointer. Directory lengths are
// fixed per view; each directory slot holds an atomic pointer to a
// bucket, so a single-record write appends to or replaces one bucket
// per index without copying any directory — the RCU grace period is per
// bucket. Directory resizes, expiry sweeps and scan-residue changes
// build a whole new view and swap the segment's view pointer instead.
// Records are shared across bucket generations and views, so the atomic
// counters inside them never lose updates across a swap.
//
// Every record appears in main, keyed by labelHash, so get and each see
// exactly one copy. Non-exact labels are also indexed by their anchor:
// dst holds dst-anchored shapes keyed by addrHash(dst), pfx holds
// source prefixes keyed by pfxHash(src, plen), and scan is the residue
// of shapes with no anchor.
type view struct {
	main directory
	dst  directory
	pfx  directory
	scan []*record // immutable per view

	// exact and pair count the records of each hashed shape; a probe
	// whose count is zero cannot hit and is skipped. plens has bit p
	// set while a /p source prefix is indexed in pfx. Canonical prefix
	// lengths are 1..31, so 32 bits hold them all.
	exact atomic.Int32  // aitf:atomic
	pair  atomic.Int32  // aitf:atomic
	plens atomic.Uint32 // aitf:atomic

	// Writer-only bookkeeping, under the segment's writer lock: records
	// indexed in dst and pfx, and pfx records per prefix length (nil
	// while pfx is empty).
	dcount, pcount int32
	perLen         *[32]int32
}

// empty is the view every segment starts from. It is never written —
// the first insert rebuilds — so all segments share it.
var empty = &view{}

// get returns the record stored under the exact canonical label, if any.
func (v *view) get(l flow.Label) *record {
	if len(v.main) == 0 {
		return nil
	}
	return v.main.find(l)
}

// each visits every record exactly once, in directory order.
func (v *view) each(fn func(*record)) {
	for i := range v.main {
		if b := v.main[i].Load(); b != nil {
			for _, sl := range b.s[:b.n.Load()] {
				fn(sl.r)
			}
		}
	}
}

// buildView constructs a fresh view over the given records.
func buildView(records []*record) *view {
	v := &view{}
	if len(records) == 0 {
		return v
	}
	slots := make([]slot, 0, len(records))
	var dslots, pslots []slot
	var exact, pair int32
	var plens uint32
	for _, r := range records {
		l := r.label
		slots = append(slots, slot{labelHash(l), r})
		switch labelShape(l) {
		case shapeExact:
			exact++
		case shapePair:
			pair++
		case shapeDst:
			dslots = append(dslots, slot{addrHash(uint32(l.Dst)), r})
		case shapeSrcPfx:
			pslots = append(pslots, slot{pfxHash(uint32(l.Src), l.SrcPrefixLen), r})
			if v.perLen == nil {
				v.perLen = new([32]int32)
			}
			v.perLen[l.SrcPrefixLen]++
			plens |= 1 << l.SrcPrefixLen
		case shapeScan:
			v.scan = append(v.scan, r)
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
// fewer (delta −1) record of shape sh in place, newCount being the
// record count afterwards: no directory resizes and the scan residue
// stays as it is.
func (v *view) inPlace(sh shape, newCount, delta int) bool {
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

// withInsert adds r, returning the view the segment must publish: the
// receiver itself after in-place bucket appends or swaps (the common
// case — O(bucketLoad) per index touched), or a freshly built view when
// a directory must resize or the scan residue changes. Caller holds the
// segment's writer lock; newCount is the record count after the insert.
// Counts are raised after the slots are published, so a reader that
// sees a count also finds the slot.
func (v *view) withInsert(newCount int, r *record) *view {
	l := r.label
	sh := labelShape(l)
	if !v.inPlace(sh, newCount, 1) {
		live := make([]*record, 0, newCount)
		v.each(func(x *record) { live = append(live, x) })
		return buildView(append(live, r))
	}
	v.main.add(slot{labelHash(l), r})
	switch sh {
	case shapeExact:
		v.exact.Add(1)
	case shapePair:
		v.pair.Add(1)
	case shapeDst:
		v.dcount++
		v.dst.add(slot{addrHash(uint32(l.Dst)), r})
	case shapeSrcPfx:
		v.pcount++
		v.pfx.add(slot{pfxHash(uint32(l.Src), l.SrcPrefixLen), r})
		if v.perLen[l.SrcPrefixLen]++; v.perLen[l.SrcPrefixLen] == 1 {
			v.plens.Or(1 << l.SrcPrefixLen)
		}
	}
	return v
}

// withRemove deletes r, with the same publish contract as withInsert;
// newCount is the record count after the removal.
func (v *view) withRemove(newCount int, r *record) *view {
	l := r.label
	sh := labelShape(l)
	if !v.inPlace(sh, newCount, -1) {
		live := make([]*record, 0, newCount)
		v.each(func(x *record) {
			if x != r {
				live = append(live, x)
			}
		})
		return buildView(live)
	}
	v.main.del(labelHash(l), r)
	switch sh {
	case shapeExact:
		v.exact.Add(-1)
	case shapePair:
		v.pair.Add(-1)
	case shapeDst:
		v.dcount--
		v.dst.del(addrHash(uint32(l.Dst)), r)
	case shapeSrcPfx:
		v.pcount--
		v.pfx.del(pfxHash(uint32(l.Src), l.SrcPrefixLen), r)
		if v.perLen[l.SrcPrefixLen]--; v.perLen[l.SrcPrefixLen] == 0 {
			v.plens.And(^uint32(1 << l.SrcPrefixLen))
		}
	}
	return v
}

// match finds a live record covering the tuple, walking the match
// hierarchy: exact probe, pair probe, destination directory, prefix
// directory (present lengths shortest first, each bucket in insertion
// order), scan residue. It serves both tables. Lock-free.
//
// aitf:noalloc
func match(v *view, exact, pair flow.Label, tup flow.Tuple, now filter.Time) *record {
	if v.exact.Load() > 0 {
		if r := v.main.find(exact); r != nil && r.expires() > now {
			return r
		}
	}
	if v.pair.Load() > 0 {
		if r := v.main.find(pair); r != nil && r.expires() > now {
			return r
		}
	}
	if len(v.dst) > 0 {
		h := addrHash(uint32(tup.Dst))
		if b := v.dst[h&uint32(len(v.dst)-1)].Load(); b != nil {
			for _, sl := range b.s[:b.n.Load()] {
				if sl.tag == h && sl.r.label.Matches(tup) && sl.r.expires() > now {
					return sl.r
				}
			}
		}
	}
	for m := v.plens.Load(); m != 0; m &= m - 1 {
		plen := uint8(bits.TrailingZeros32(m))
		h := pfxHash(uint32(tup.Src), plen)
		if b := v.pfx[h&uint32(len(v.pfx)-1)].Load(); b != nil {
			for _, sl := range b.s[:b.n.Load()] {
				if sl.tag == h && sl.r.label.SrcPrefixLen == plen &&
					sl.r.label.Matches(tup) && sl.r.expires() > now {
					return sl.r
				}
			}
		}
	}
	for _, r := range v.scan {
		if r.expires() > now && r.label.Matches(tup) {
			return r
		}
	}
	return nil
}

// ── segments and tables ──────────────────────────────────────────────

// seg is one partition of a table: a hash shard, or the wild segment.
// All state readers see lives in the published view; there is no
// separate canonical map. The mutex is a pure writer lock: a write
// (insert / remove / expire) holds it while deriving and swapping in
// the next view — an RCU-style build-and-swap in which in-flight
// readers simply finish against the old view.
type seg struct {
	view  atomic.Pointer[view] // aitf:atomic RCU: readers Load a published view, writers build-and-swap
	mu    sync.Mutex
	count int // records in view, guarded by mu

	// next is the earliest deadline among the records (valid only while
	// count is non-zero); it lets an expiry pass return O(1) when nothing
	// is due, so the control plane can collect eagerly without O(n)
	// rescans. Guarded by mu.
	next filter.Time

	// Hot-path counters live per segment (summed by FilterStats and
	// ShadowStats) so classification on different shards never bounces
	// a shared stats cache line. hits counts drops or reappearances,
	// bytes the dropped payload. The pads keep them 64 bytes from any
	// view pointer, this segment's or the next one's in the table's
	// array, so counting never evicts the line a reader loads its view
	// from.
	_           [32]byte
	hits, bytes atomic.Uint64 // aitf:atomic
	_           [48]byte
}

// drop charges one dropped packet of n payload bytes to filter r.
func (s *seg) drop(r *record, n int) Verdict {
	r.hits.Add(1)
	r.word.Add(uint64(n))
	s.hits.Add(1)
	s.bytes.Add(uint64(n))
	return Verdict{Drop: true}
}

// reappear records one reappearance of the flow shadow record r logs.
func (s *seg) reappear(r *record) Verdict {
	r.hits.Add(1)
	s.hits.Add(1)
	return Verdict{ShadowHit: true, Shadow: toShadow(r.entry())}
}

// expire drops the records dead at now, publishing a view of the live
// ones, and returns how many died. Caller holds s.mu. The next hint
// makes the nothing-due case O(1).
func (s *seg) expire(now filter.Time) int {
	if s.count == 0 || now < s.next {
		return 0
	}
	live := make([]*record, 0, s.count)
	first := true
	s.view.Load().each(func(r *record) {
		exp := r.expires()
		if exp <= now {
			return
		}
		live = append(live, r)
		if first || exp < s.next {
			s.next, first = exp, false
		}
	})
	n := s.count - len(live)
	if n == 0 {
		return 0
	}
	s.view.Store(buildView(live))
	s.count = len(live)
	return n
}

// table is one of the engine's two bounded tables: the wire-speed
// filter bank or the DRAM shadow log. It is partitioned into hash
// shards keyed by a label's (src, dst) pair plus the wild segment for
// labels that wildcard or prefix either address. Capacity is one
// global budget across segments.
type table struct {
	shards []seg
	wild   seg

	capacity int64
	// evict makes a full table displace its record nearest to expiry
	// (the filter bank under filter.EvictSoonest); refreshWord makes a
	// refresh store the written word too (the shadow log's victim).
	evict, refreshWord bool

	// used is the occupancy the budget is enforced on and peak its
	// maximum; wildLen counts the wild segment's records, so
	// classification skips the segment while it is empty.
	used, peak, wildLen               atomic.Int64  // aitf:atomic
	added, rejected, expired, evicted atomic.Uint64 // aitf:atomic
}

// init gives t its shards, every segment the empty view, and its
// budget and policies.
func (t *table) init(shards, capacity int, evict, refreshWord bool) {
	t.shards = make([]seg, shards)
	for i := range t.shards {
		t.shards[i].view.Store(empty)
	}
	t.wild.view.Store(empty)
	t.capacity, t.evict, t.refreshWord = int64(capacity), evict, refreshWord
}

// segFor returns the segment that owns a canonical label: the wild
// segment when src or dst is wildcarded or prefix-granular (such a
// label matches tuples hashing to any shard), the pair's shard
// otherwise.
func (t *table) segFor(l flow.Label) (*seg, bool) {
	if l.Wildcards&(flow.WildSrc|flow.WildDst) != 0 || l.SrcPrefixLen != 0 || l.DstPrefixLen != 0 {
		return &t.wild, true
	}
	return &t.shards[shardIdx(l.Src, l.Dst, uint32(len(t.shards)-1))], false
}

// each visits every segment, the wild one last.
func (t *table) each(fn func(*seg, bool)) {
	for i := range t.shards {
		fn(&t.shards[i], false)
	}
	fn(&t.wild, true)
}

// get returns the record stored under the canonical label l, live or
// not, and its segment. Lock-free.
func (t *table) get(l flow.Label) (*record, *seg) {
	s, _ := t.segFor(l)
	return s.view.Load().get(l), s
}

// wildView returns the wild segment's view, or nil while it is empty.
func (t *table) wildView() *view {
	if t.wildLen.Load() > 0 {
		return t.wild.view.Load()
	}
	return nil
}

// refresh raises r's deadline to ent's (never shortening it) and, in
// the shadow log, takes ent's victim. Caller holds r's segment lock.
func (t *table) refresh(r *record, ent filter.Entry) {
	if ent.ExpiresAt > r.expires() {
		r.exp.Store(int64(ent.ExpiresAt))
	}
	if t.refreshWord {
		r.word.Store(ent.DroppedBytes)
	}
}

// insert is the one write path of both tables. A label already present
// is refreshed; that consumes no capacity, needs no republish and
// always succeeds. A new label first reclaims the records dead at
// ent.InstalledAt when reclaim is set, then reserves a slot of the
// global budget (evicting when the table evicts) and is published with
// ent's write time, deadline and counters. It reports whether the
// label is in the table afterwards.
func (t *table) insert(ent filter.Entry, reclaim bool) bool {
	label, exp := ent.Label.Key(), ent.ExpiresAt
	s, wild := t.segFor(label)

	s.mu.Lock()
	if r := s.view.Load().get(label); r != nil {
		t.refresh(r, ent)
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()

	if reclaim {
		t.expire(ent.InstalledAt)
	}
	for attempt := 0; ; attempt++ {
		used := t.used.Load()
		if used < t.capacity {
			if !t.used.CompareAndSwap(used, used+1) {
				continue // raced with another insert or removal; retry
			}
			break // slot reserved
		}
		if !t.evict || attempt >= 8 || !t.evictSoonest() {
			t.rejected.Add(1)
			return false
		}
		// The eviction freed a slot; loop to claim it.
	}

	s.mu.Lock()
	if r := s.view.Load().get(label); r != nil {
		// Lost a race with a concurrent insert of the same label.
		t.refresh(r, ent)
		s.mu.Unlock()
		t.used.Add(-1)
		return true
	}
	r := &record{label: label, at: ent.InstalledAt}
	r.exp.Store(int64(exp))
	r.hits.Store(ent.Drops)
	r.word.Store(ent.DroppedBytes)
	s.count++
	s.view.Store(s.view.Load().withInsert(s.count, r))
	if s.count == 1 || exp < s.next {
		s.next = exp
	}
	if wild {
		t.wildLen.Add(1)
	}
	s.mu.Unlock()
	t.added.Add(1)
	atomicMax(&t.peak, t.used.Load())
	return true
}

// evictSoonest removes the table-wide record closest to expiry,
// reporting whether anything was evicted.
func (t *table) evictSoonest() bool {
	var victim *record
	t.each(func(s *seg, _ bool) {
		s.view.Load().each(func(r *record) {
			if victim == nil || r.expires() < victim.expires() {
				victim = r
			}
		})
	})
	if victim == nil {
		return false
	}
	if _, ok := t.remove(victim.label); !ok {
		return false // raced with expiry/removal; caller retries
	}
	t.evicted.Add(1)
	return true
}

// remove deletes the record for the canonical label, returning its
// deadline so callers can preserve coverage time.
func (t *table) remove(label flow.Label) (exp filter.Time, ok bool) {
	s, wild := t.segFor(label)
	s.mu.Lock()
	r := s.view.Load().get(label)
	if r == nil {
		s.mu.Unlock()
		return 0, false
	}
	exp = r.expires()
	s.count--
	s.view.Store(s.view.Load().withRemove(s.count, r))
	s.mu.Unlock()
	if wild {
		t.wildLen.Add(-1)
	}
	t.used.Add(-1)
	return exp, true
}

// expire collects the records whose deadline has passed, returning how
// many were removed across all segments.
func (t *table) expire(now filter.Time) int {
	n := 0
	t.each(func(s *seg, wild bool) {
		s.mu.Lock()
		k := s.expire(now)
		s.mu.Unlock()
		if wild && k > 0 {
			t.wildLen.Add(int64(-k))
		}
		n += k
	})
	if n > 0 {
		t.used.Add(int64(-n))
		t.expired.Add(uint64(n))
	}
	return n
}

// sums returns the hot-path counters summed across segments.
func (t *table) sums() (hits, bytes uint64) {
	t.each(func(s *seg, _ bool) {
		hits += s.hits.Load()
		bytes += s.bytes.Load()
	})
	return hits, bytes
}

// list reads every record in entry form, sorted by expiry (soonest
// first, ties by label text).
func (t *table) list() []filter.Entry {
	out := make([]filter.Entry, 0, t.used.Load())
	t.each(func(s *seg, _ bool) {
		s.view.Load().each(func(r *record) { out = append(out, r.entry()) })
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].ExpiresAt != out[j].ExpiresAt {
			return out[i].ExpiresAt < out[j].ExpiresAt
		}
		return out[i].Label.String() < out[j].Label.String()
	})
	return out
}
