package dataplane

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
)

// lockedOracle re-implements the engine's verdict semantics the
// simplest way that can be right: one RWMutex around plain maps, with
// non-exact matching done by scanning every entry against
// flow.Label.Matches. The equivalence tests drive the indexed lock-free
// engine and this scan-everything oracle with the same operation stream
// and demand identical verdicts and conserved drop accounting — neither
// the snapshot swap discipline nor the dst/prefix-directory match hierarchy
// may lose, duplicate, or reorder a decision the naive design would
// have made.
type lockedOracle struct {
	mu      sync.RWMutex
	filters map[flow.Label]*oracleEntry
	shadows map[flow.Label]*oracleEntry
}

type oracleEntry struct {
	label flow.Label
	exp   filter.Time
	drops uint64
	bytes uint64
	reapp int
}

func newLockedOracle() *lockedOracle {
	return &lockedOracle{
		filters: make(map[flow.Label]*oracleEntry),
		shadows: make(map[flow.Label]*oracleEntry),
	}
}

func (o *lockedOracle) install(label flow.Label, exp filter.Time) {
	label = label.Key()
	o.mu.Lock()
	defer o.mu.Unlock()
	if fe, ok := o.filters[label]; ok {
		if exp > fe.exp {
			fe.exp = exp
		}
		return
	}
	o.filters[label] = &oracleEntry{label: label, exp: exp}
}

func (o *lockedOracle) remove(label flow.Label) {
	label = label.Key()
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.filters, label)
}

func (o *lockedOracle) logShadow(label flow.Label, exp filter.Time) {
	label = label.Key()
	o.mu.Lock()
	defer o.mu.Unlock()
	if se, ok := o.shadows[label]; ok {
		if exp > se.exp {
			se.exp = exp
		}
		return
	}
	o.shadows[label] = &oracleEntry{label: label, exp: exp}
}

func (o *lockedOracle) expire(now filter.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for l, fe := range o.filters {
		if fe.exp <= now {
			delete(o.filters, l)
		}
	}
}

func (o *lockedOracle) expireShadows(now filter.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for l, se := range o.shadows {
		if se.exp <= now {
			delete(o.shadows, l)
		}
	}
}

// matchOracle is the naive reference matcher: keyed probes for the two
// hash shapes, then an unconditional scan of every entry. Deliberately
// index-free.
func matchOracle(m map[flow.Label]*oracleEntry, exact, pair flow.Label, tup flow.Tuple, now filter.Time) *oracleEntry {
	if e, ok := m[exact]; ok && e.exp > now {
		return e
	}
	if e, ok := m[pair]; ok && e.exp > now {
		return e
	}
	for _, e := range m {
		if e.exp > now && e.label.Matches(tup) {
			return e
		}
	}
	return nil
}

// classify mirrors Engine.classifyAt under the read lock.
func (o *lockedOracle) classify(tup flow.Tuple, payload int, now filter.Time) (drop, shadowHit bool) {
	exact := tup.ExactLabel()
	pair := flow.PairLabel(tup.Src, tup.Dst)
	o.mu.RLock()
	defer o.mu.RUnlock()
	if fe := matchOracle(o.filters, exact, pair, tup, now); fe != nil {
		fe.drops++
		fe.bytes += uint64(payload)
		return true, false
	}
	if se := matchOracle(o.shadows, exact, pair, tup, now); se != nil {
		se.reapp++
		return false, true
	}
	return false, false
}

func (o *lockedOracle) totals() (drops, bytes, hits uint64) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, fe := range o.filters {
		drops += fe.drops
		bytes += fe.bytes
	}
	for _, se := range o.shadows {
		hits += uint64(se.reapp)
	}
	return
}

// randomLabel draws labels of every shape the engine's match hierarchy
// segments by: exact and canonical pair (hash probes), dst-anchored
// wildcards (secondary dst index), source prefixes at several lengths
// (prefix directory, overlapping by construction), destination prefixes and
// wild-src/dst labels (scan residue / overflow segment).
func randomLabel(rng *rand.Rand, universe int) flow.Label {
	src := addr(rng.Intn(universe))
	dst := addr(rng.Intn(universe) + 1000)
	switch rng.Intn(14) {
	case 0: // exact
		return flow.Exact(src, dst, flow.ProtoUDP, uint16(rng.Intn(4)+1), 80)
	case 1: // dst-anchored: concrete pair, wildcard ports only
		return flow.Label{Src: src, Dst: dst, Proto: flow.ProtoUDP,
			Wildcards: flow.WildSrcPort | flow.WildDstPort}
	case 2: // wild source (overflow segment)
		return fromSource(src)
	case 3: // dst-anchored: any source toward dst
		return flow.ToDestination(dst)
	case 4, 5: // source prefix, length varied so prefixes nest
		bits := uint8(20 + 4*rng.Intn(4)) // /20, /24, /28, /32
		return flow.SrcPrefixLabel(src, bits, dst)
	case 6: // destination prefix (scan residue)
		return dstPrefixLabel(src, dst, uint8(20+rng.Intn(12)))
	case 7: // source prefix with concrete proto/ports
		l := flow.Exact(src, dst, flow.ProtoUDP, uint16(rng.Intn(4)+1), 80)
		l.SrcPrefixLen = 24
		return l.Canonical()
	default: // the canonical AITF pair label
		return flow.PairLabel(src, dst)
	}
}

func randomTuple(rng *rand.Rand, universe int) flow.Tuple {
	return flow.TupleOf(
		addr(rng.Intn(universe)), addr(rng.Intn(universe)+1000),
		flow.ProtoUDP, uint16(rng.Intn(4)+1), 80)
}

// TestSnapshotMatchesLockedSequential drives the snapshot engine (at
// several shard counts) and the locked oracle through an identical
// randomized Install/Remove/LogShadow/Expire/advance stream and
// asserts the verdict streams are identical packet by packet, and that
// drop/byte/hit accounting agrees exactly at the end.
func TestSnapshotMatchesLockedSequential(t *testing.T) {
	const (
		universe = 64
		ops      = 20000
		payload  = 100
	)
	for _, shards := range []int{1, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				e, ck := newEngine(t, shards, 1<<20, 1<<20, filter.RejectNew)
				o := newLockedOracle()
				var verdicts, oVerdicts uint64
				for i := 0; i < ops; i++ {
					now := ck.Now()
					switch rng.Intn(9) {
					case 0:
						l := randomLabel(rng, universe)
						exp := now + filter.Time(rng.Intn(50)+1)*time.Millisecond
						if err := e.Install(l, now, exp); err != nil {
							t.Fatalf("install: %v", err)
						}
						o.install(l, exp)
					case 1:
						l := randomLabel(rng, universe)
						exp := now + filter.Time(rng.Intn(200)+1)*time.Millisecond
						if !e.LogShadow(l, l.Dst, now, exp) {
							t.Fatal("logShadow rejected below capacity")
						}
						o.logShadow(l, exp)
					case 2:
						l := randomLabel(rng, universe)
						e.Remove(l)
						o.remove(l)
					case 3:
						e.Expire(now)
						e.ExpireShadows(now)
						o.expire(now)
						o.expireShadows(now)
					case 4:
						ck.advance(time.Duration(rng.Intn(20)) * time.Millisecond)
					default:
						tup := randomTuple(rng, universe)
						v := e.ClassifyTuple(tup, payload)
						drop, hit := o.classify(tup, payload, now)
						if v.Drop != drop || v.ShadowHit != hit {
							t.Fatalf("op %d: engine {drop=%v hit=%v} oracle {drop=%v hit=%v} for %v",
								i, v.Drop, v.ShadowHit, drop, hit, tup)
						}
						if v.Drop {
							verdicts++
						}
						if drop {
							oVerdicts++
						}
					}
				}
				st := e.FilterStats()
				oDrops, oBytes, oHits := o.totals()
				// The oracle retains removed entries' counters only while
				// installed, so compare against the engine's cumulative
				// per-shard counters, which also survive removal.
				if st.Drops != verdicts || oDrops > st.Drops {
					t.Fatalf("drop accounting: engine %d (verdicts %d), oracle-live %d", st.Drops, verdicts, oDrops)
				}
				if st.DroppedBytes != verdicts*payload {
					t.Fatalf("byte accounting: %d, want %d", st.DroppedBytes, verdicts*payload)
				}
				if hs := e.ShadowStats().Hits; oHits > hs {
					t.Fatalf("hit accounting: engine %d < oracle-live %d", hs, oHits)
				}
				_ = oBytes
				if verdicts != oVerdicts {
					t.Fatalf("verdict streams diverge: %d vs %d drops", verdicts, oVerdicts)
				}
			})
		}
	}
}

// TestSnapshotChurnConservation is the -race workout for the swap
// discipline: concurrent installs, removals, expiry, and shadow churn
// race batch and single-packet classification, and at the end the
// engine's cumulative drop/byte/hit counters must equal exactly what
// the readers observed in their verdicts — a swap that dropped or
// double-counted a verdict's accounting would break the equality.
func TestSnapshotChurnConservation(t *testing.T) {
	e, ck := newEngine(t, 8, 512, 512, filter.RejectNew)
	ck.set(time.Millisecond)
	const flows = 128
	const payload = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := rng.Intn(flows)
				label := flow.PairLabel(addr(f), addr(f+1000))
				now := ck.Now()
				switch i % 4 {
				case 0:
					e.Install(label, now, now+time.Millisecond)
				case 1:
					e.LogShadow(label, addr(f+1000), now, now+10*time.Millisecond)
				case 2:
					e.Expire(now)
					e.ExpireShadows(now)
				case 3:
					e.Remove(label)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ck.advance(10 * time.Microsecond)
				time.Sleep(time.Microsecond)
			}
		}
	}()

	var seenDrops, seenBytes, seenHits atomic.Uint64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			batch := make([]*packet.Packet, 32)
			for i := range batch {
				f := rng.Intn(flows)
				batch[i] = pkt(addr(f), addr(f+1000), payload)
			}
			verdicts := make([]Verdict, 0, len(batch))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				verdicts = e.ClassifyInto(batch, verdicts)
				for _, v := range verdicts {
					if v.Drop {
						seenDrops.Add(1)
						seenBytes.Add(payload)
					} else if v.ShadowHit {
						seenHits.Add(1)
					}
				}
				v := e.ClassifyTuple(batch[i%len(batch)].Tuple(), payload)
				if v.Drop {
					seenDrops.Add(1)
					seenBytes.Add(payload)
				} else if v.ShadowHit {
					seenHits.Add(1)
				}
			}
		}(r)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	st := e.FilterStats()
	if st.Drops != seenDrops.Load() {
		t.Fatalf("drops not conserved across swaps: engine %d, verdicts %d", st.Drops, seenDrops.Load())
	}
	if st.DroppedBytes != seenBytes.Load() {
		t.Fatalf("bytes not conserved: engine %d, verdicts %d", st.DroppedBytes, seenBytes.Load())
	}
	if hits := e.ShadowStats().Hits; hits != seenHits.Load() {
		t.Fatalf("shadow hits not conserved: engine %d, verdicts %d", hits, seenHits.Load())
	}
	if seenDrops.Load() == 0 {
		t.Fatal("no drops observed; churn workload is mis-tuned")
	}
	// Occupancy accounting still sums after the dust settles.
	sum := 0
	for i := 0; i < len(e.filters.shards); i++ {
		sum += e.ShardLen(i)
	}
	if sum != e.Len() {
		t.Fatalf("Len %d != shard sum %d", e.Len(), sum)
	}
}

// TestEngineAggregateConservesBudget checks Aggregate's budget
// contract with the children spread over four hash shards and the
// aggregate in the wild segment: replacing k children with one
// aggregate frees exactly k−1 slots of the global budget, attributes
// removals to Aggregated (not Removed), preserves coverage time, and
// leaves the freed slots reusable.
func TestEngineAggregateConservesBudget(t *testing.T) {
	e, ck := newEngine(t, 4, 8, 8, filter.RejectNew)
	dst := addr(2000)
	for i := 0; i < 8; i++ {
		label := flow.PairLabel(flow.MakeAddr(240, 1, 2, byte(i)), dst)
		if err := e.Install(label, 0, filter.Time(i+1)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(flow.PairLabel(addr(1), dst), 0, time.Minute); err == nil {
		t.Fatal("engine should be at capacity")
	}
	groups := filter.SiblingGroups(e.FilterEntries(), 24, 2)
	if len(groups) != 1 || len(groups[0].Children) != 8 {
		t.Fatalf("groups: %+v", groups)
	}
	g := groups[0]
	replaced, err := e.Aggregate(g.Aggregate, g.ChildLabels(), 0, time.Second)
	if err != nil || replaced != 8 {
		t.Fatalf("Aggregate replaced %d, err %v", replaced, err)
	}
	if e.Len() != 1 {
		t.Fatalf("Len after aggregate = %d, want 1", e.Len())
	}
	st := e.FilterStats()
	if st.Aggregates != 1 || st.Aggregated != 8 || st.Removed != 0 {
		t.Fatalf("aggregation stats: %+v", st)
	}
	live := int64(st.Installed) + int64(st.Aggregates) - int64(st.Removed) -
		int64(st.Aggregated) - int64(st.Expired) - int64(st.Evicted)
	if live != int64(e.Len()) {
		t.Fatalf("stats arithmetic %d != occupancy %d (%+v)", live, e.Len(), st)
	}
	// Coverage time conserved (latest child deadline) and every child
	// flow still drops, now via the prefix directory.
	if en, ok := e.Get(g.Aggregate, 0); !ok || en.ExpiresAt != 8*time.Second {
		t.Fatalf("aggregate deadline: %+v ok=%v", en, ok)
	}
	for i := 0; i < 8; i++ {
		tup := flow.TupleOf(flow.MakeAddr(240, 1, 2, byte(i)), dst, flow.ProtoUDP, 7, 80)
		if v := e.ClassifyTuple(tup, 10); !v.Drop {
			t.Fatalf("child flow %d not dropped by aggregate", i)
		}
	}
	// And the freed budget is genuinely reusable.
	for i := 0; i < 7; i++ {
		if err := e.Install(flow.PairLabel(addr(100+i), addr(3000+i)), 0, time.Minute); err != nil {
			t.Fatalf("freed slot %d not reusable: %v", i, err)
		}
	}
	ck.set(30 * time.Second) // past the aggregate's deadline, not the refills'
	e.Expire(ck.Now())
	if e.Len() != 7 {
		t.Fatalf("aggregate did not expire: %d", e.Len())
	}
}

// TestPrefixChurnConservation is the -race workout for the new index
// structures: concurrent prefix-filter installs, aggregations of
// sibling pair filters, removals, and expiry sweeps race batch and
// single-packet classification over traffic that matches via the prefix
// and dst directories, and at the end the engine's cumulative counters
// must equal exactly what the readers observed — a bucket append or
// swap that dropped or double-counted a verdict would break equality.
func TestPrefixChurnConservation(t *testing.T) {
	e, ck := newEngine(t, 4, 4096, 512, filter.RejectNew)
	ck.set(time.Millisecond)
	const groups = 16 // /24 sibling groups, each toward its own victim
	const payload = 64
	childLabel := func(grp, i int) flow.Label {
		return flow.PairLabel(flow.MakeAddr(240, 1, byte(grp), byte(i)), addr(2000+grp))
	}
	aggLabel := func(grp int) flow.Label {
		return flow.SrcPrefixLabel(flow.MakeAddr(240, 1, byte(grp), 0), 24, addr(2000+grp))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				grp := rng.Intn(groups)
				now := ck.Now()
				switch i % 6 {
				case 0, 1: // sibling pair filters (aggregation fodder)
					e.Install(childLabel(grp, rng.Intn(8)), now, now+2*time.Millisecond)
				case 2: // direct prefix install (prefix-directory append)
					e.Install(aggLabel(grp), now, now+2*time.Millisecond)
				case 3: // coalesce whatever siblings are live
					var children []flow.Label
					for c := 0; c < 8; c++ {
						children = append(children, childLabel(grp, c))
					}
					e.Aggregate(aggLabel(grp), children, now, now+2*time.Millisecond)
				case 4:
					e.Remove(aggLabel(grp))
				case 5:
					e.Expire(now)
					e.ExpireShadows(now)
					e.LogShadow(aggLabel(grp), addr(2000+grp), now, now+5*time.Millisecond)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ck.advance(10 * time.Microsecond)
				time.Sleep(time.Microsecond)
			}
		}
	}()

	var seenDrops, seenBytes, seenHits atomic.Uint64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			batch := make([]*packet.Packet, 32)
			for i := range batch {
				grp := rng.Intn(groups)
				// Sibling-space sources, so traffic matches child pair
				// filters exactly and aggregates via the prefix directory.
				batch[i] = pkt(flow.MakeAddr(240, 1, byte(grp), byte(rng.Intn(8))), addr(2000+grp), payload)
			}
			verdicts := make([]Verdict, 0, len(batch))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				verdicts = e.ClassifyInto(batch, verdicts)
				for _, v := range verdicts {
					if v.Drop {
						seenDrops.Add(1)
						seenBytes.Add(payload)
					} else if v.ShadowHit {
						seenHits.Add(1)
					}
				}
				v := e.ClassifyTuple(batch[i%len(batch)].Tuple(), payload)
				if v.Drop {
					seenDrops.Add(1)
					seenBytes.Add(payload)
				} else if v.ShadowHit {
					seenHits.Add(1)
				}
			}
		}(r)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	st := e.FilterStats()
	if st.Drops != seenDrops.Load() {
		t.Fatalf("drops not conserved across swaps: engine %d, verdicts %d", st.Drops, seenDrops.Load())
	}
	if st.DroppedBytes != seenBytes.Load() {
		t.Fatalf("bytes not conserved: engine %d, verdicts %d", st.DroppedBytes, seenBytes.Load())
	}
	if hits := e.ShadowStats().Hits; hits != seenHits.Load() {
		t.Fatalf("shadow hits not conserved: engine %d, verdicts %d", hits, seenHits.Load())
	}
	if seenDrops.Load() == 0 {
		t.Fatal("no drops observed; churn workload is mis-tuned")
	}
	sum := 0
	for i := 0; i < len(e.filters.shards); i++ {
		sum += e.ShardLen(i)
	}
	// The wild segment holds the prefix filters; Len covers all segments.
	if sum > e.Len() {
		t.Fatalf("Len %d < shard sum %d", e.Len(), sum)
	}
}

// TestClassifySteadyStateZeroAlloc pins the acceptance criterion that
// the hot loops allocate nothing once warm: both the batch path
// (ClassifyInto with a caller-owned verdict slice) and the per-packet
// path (ClassifyTuple), on hit, miss, and shadow-hit traffic — over a
// plain pair table and over a wildcard/prefix-heavy table that keeps
// the dst and source-prefix directories hot.
func TestClassifySteadyStateZeroAlloc(t *testing.T) {
	// measure runs one table shape as a subtest of t, so each shape
	// passes or fails under its own name.
	measure := func(t *testing.T, name string, e *Engine, batch []*packet.Packet) {
		t.Run(name, func(t *testing.T) {
			verdicts := make([]Verdict, 0, len(batch))
			if allocs := testing.AllocsPerRun(200, func() {
				verdicts = e.ClassifyInto(batch, verdicts)
			}); allocs != 0 {
				t.Fatalf("ClassifyInto allocates %v/op at steady state, want 0", allocs)
			}
			tup := batch[0].Tuple()
			if allocs := testing.AllocsPerRun(200, func() {
				e.ClassifyTuple(tup, 512)
			}); allocs != 0 {
				t.Fatalf("ClassifyTuple allocates %v/op at steady state, want 0", allocs)
			}
		})
	}

	rng := rand.New(rand.NewSource(7))
	e := workloadEngine(4, 4096)
	measure(t, "pairs", e, workloadBatch(rng, 4096, 64, 0.5))

	// Wildcard/prefix-heavy: as many coarse filters as pairs, half the
	// traffic matching them, so every packet runs the full hierarchy.
	we := wildcardWorkloadEngine(4, 2048, 4096)
	measure(t, "wildcard", we, wildcardWorkloadBatch(rng, 2048, 4096, 64, 0.5))

	// A prefix filter drop specifically (prefix-directory verdict).
	psrc, pdst := workloadPrefixLabel(0)
	ptup := flow.TupleOf(psrc+7, pdst, flow.ProtoUDP, 1000, 80)
	if v := we.ClassifyTuple(ptup, 1); !v.Drop {
		t.Fatal("prefix workload not dropping")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		we.ClassifyTuple(ptup, 1)
	}); allocs != 0 {
		t.Fatalf("prefix-hit classify allocates %v/op, want 0", allocs)
	}

	// Nested prefix lengths: /16, /24 and /28 filters over one source
	// block, each toward its own destination, so a packet the /28 drops
	// first probes the two shorter lengths; and a /20 shadow record over
	// the same block that only the shadow side covers.
	ne := wildcardWorkloadEngine(4, 2048, 4096)
	nsrc := flow.MakeAddr(243, 1, 2, 0)
	for i, bits := range []uint8{16, 24, 28} {
		if err := ne.Install(flow.SrcPrefixLabel(nsrc, bits, addr(3000+i)), 0, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	ne.LogShadow(flow.SrcPrefixLabel(nsrc, 20, addr(3100)), addr(3100), 0, time.Hour)
	nested := wildcardWorkloadBatch(rng, 2048, 4096, 64, 0.5)
	for i := 0; i < len(nested); i += 4 {
		nested[i] = pkt(nsrc+5, addr(3002), 512)
		nested[i+1] = pkt(nsrc+5, addr(3100), 512)
	}
	if v := ne.ClassifyInto(nested[:2], nil); !v[0].Drop || !v[1].ShadowHit {
		t.Fatalf("nested prefixes: verdicts %+v, want a /28 drop and a /20 shadow hit", v)
	}
	measure(t, "nested", ne, nested)
	nshTup := nested[1].Tuple()
	if allocs := testing.AllocsPerRun(200, func() {
		ne.ClassifyTuple(nshTup, 1)
	}); allocs != 0 {
		t.Fatalf("nested prefix shadow-hit classify allocates %v/op, want 0", allocs)
	}

	// Shadow-hit path: log a shadow for a miss-range flow and classify
	// it; also a prefix-shaped shadow record (prefix directory on the
	// shadow side).
	src, dst := addr(9999), addr(19999)
	e.LogShadow(flow.PairLabel(src, dst), dst, 0, time.Hour)
	shTup := flow.TupleOf(src, dst, flow.ProtoUDP, 1000, 80)
	if v := e.ClassifyTuple(shTup, 1); !v.ShadowHit {
		t.Fatal("shadow workload not hitting")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		e.ClassifyTuple(shTup, 1)
	}); allocs != 0 {
		t.Fatalf("shadow-hit classify allocates %v/op, want 0", allocs)
	}
	ssrc := flow.MakeAddr(241, 7, 7, 0)
	e.LogShadow(flow.SrcPrefixLabel(ssrc, 24, dst), dst, 0, time.Hour)
	pshTup := flow.TupleOf(ssrc+9, dst, flow.ProtoUDP, 1000, 80)
	if v := e.ClassifyTuple(pshTup, 1); !v.ShadowHit {
		t.Fatal("prefix shadow not hitting")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		e.ClassifyTuple(pshTup, 1)
	}); allocs != 0 {
		t.Fatalf("prefix shadow-hit classify allocates %v/op, want 0", allocs)
	}

	// Instrumented leg: with the obs registry wired in (classified
	// counter + batch-size histogram live), the hot paths must still
	// allocate nothing — instrumentation that costs allocations would
	// be turned off in production, defeating its purpose.
	ie := workloadEngine(4, 4096)
	reg := obs.NewRegistry()
	ie.Instrument(reg)
	before := ie.Classified()
	measure(t, "instrumented", ie, workloadBatch(rng, 4096, 64, 0.5))
	if ie.Classified() <= before {
		t.Fatal("instrumented engine did not advance aitf_dataplane_classified_total")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "aitf_dataplane_classified_total") ||
		!strings.Contains(sb.String(), "aitf_dataplane_batch_size_count") {
		t.Fatalf("instrumented exposition missing dataplane metrics:\n%s", sb.String())
	}

	// Every table shape the throughput benchmarks measure: pair tables
	// by shard count, size and traffic mix, and the large wildcard
	// tables by coarse-traffic fraction.
	for _, shards := range []int{1, 4, 8} {
		for _, filters := range []int{1024, 4096, 65536} {
			pe := workloadEngine(shards, filters)
			for _, mix := range workloadMixes {
				measure(t, fmt.Sprintf("shards=%d/filters=%d/mix=%s", shards, filters, mix.name),
					pe, workloadBatch(rng, filters, 64, mix.frac))
			}
		}
	}
	for _, nonExact := range []int{4096, 65536} {
		wide := wildcardWorkloadEngine(4, 4096, nonExact)
		for _, wildFrac := range []float64{0.5, 0.9} {
			measure(t, fmt.Sprintf("pairs=4096/nonexact=%d/wildfrac=%.1f", nonExact, wildFrac),
				wide, wildcardWorkloadBatch(rng, 4096, nonExact, 64, wildFrac))
		}
	}
}

// dstPrefixLabel matches all traffic from src to the destination prefix
// dst/bits, any protocol and ports.
func dstPrefixLabel(src, dst flow.Addr, bits uint8) flow.Label {
	return flow.Label{Src: src, Dst: dst, DstPrefixLen: bits,
		Wildcards: flow.WildProto | flow.WildSrcPort | flow.WildDstPort}.Canonical()
}
