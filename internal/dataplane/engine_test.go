package dataplane

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/packet"
)

// testClock is a manually advanced clock.
type testClock struct{ now atomic.Int64 }

func (c *testClock) Now() filter.Time        { return filter.Time(c.now.Load()) }
func (c *testClock) advance(d time.Duration) { c.now.Add(int64(d)) }
func (c *testClock) set(t filter.Time)       { c.now.Store(int64(t)) }
func newEngine(t *testing.T, shards, fcap, scap int) (*Engine, *testClock) {
	t.Helper()
	ck := &testClock{}
	e := New(Config{
		Shards:         shards,
		FilterCapacity: fcap,
		ShadowCapacity: scap,
		ShadowLookup:   true,
		Clock:          ck,
	})
	return e, ck
}

func addr(i int) flow.Addr { return flow.MakeAddr(10, 0, byte(i>>8), byte(i)) }

func pkt(src, dst flow.Addr, payload int) *packet.Packet {
	return packet.NewData(src, dst, flow.ProtoUDP, 1000, 80, payload)
}

func TestShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		e, _ := newEngine(t, tc.in, 16, 16)
		if got := len(e.filters.shards); got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestClassifyPairAndExact(t *testing.T) {
	e, ck := newEngine(t, 4, 64, 64)
	src, dst := addr(1), addr(2)

	// Pair label covers all protocols/ports between the pair.
	if err := e.Install(flow.PairLabel(src, dst), 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	v := e.ClassifyTuple(flow.TupleOf(src, dst, flow.ProtoTCP, 5, 6), 100)
	if !v.Drop {
		t.Fatal("pair filter did not match")
	}
	// Unrelated pair passes.
	if v := e.ClassifyTuple(flow.TupleOf(src, addr(3), flow.ProtoTCP, 5, 6), 100); v.Drop {
		t.Fatal("unrelated tuple dropped")
	}
	// Exact label matches only the exact tuple.
	ex := flow.Exact(addr(4), addr(5), flow.ProtoUDP, 9, 10)
	if err := e.Install(ex, 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	if v := e.ClassifyTuple(flow.TupleOf(addr(4), addr(5), flow.ProtoUDP, 9, 10), 1); !v.Drop {
		t.Fatal("exact filter did not match")
	}
	if v := e.ClassifyTuple(flow.TupleOf(addr(4), addr(5), flow.ProtoUDP, 9, 11), 1); v.Drop {
		t.Fatal("exact filter over-matched")
	}
	// Expiry honored.
	ck.set(2 * time.Minute)
	if v := e.ClassifyTuple(flow.TupleOf(src, dst, flow.ProtoTCP, 5, 6), 100); v.Drop {
		t.Fatal("expired filter still matched")
	}
	// Drops were charged to the filter and the engine.
	st := e.FilterStats()
	if st.Drops != 2 {
		t.Fatalf("Drops = %d, want 2", st.Drops)
	}
	if st.DroppedBytes != 101 {
		t.Fatalf("DroppedBytes = %d, want 101", st.DroppedBytes)
	}
}

func TestScanLabelSameShardAsPair(t *testing.T) {
	// A label with concrete src/dst but a non-pair wildcard shape must
	// land in the same shard the tuple's lookup consults.
	e, _ := newEngine(t, 8, 64, 64)
	src, dst := addr(7), addr(8)
	l := flow.Label{Src: src, Dst: dst, Proto: flow.ProtoUDP,
		Wildcards: flow.WildSrcPort | flow.WildDstPort}
	if err := e.Install(l, 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	if v := e.ClassifyTuple(flow.TupleOf(src, dst, flow.ProtoUDP, 1, 2), 10); !v.Drop {
		t.Fatal("scan-shape filter did not match in home shard")
	}
	if v := e.ClassifyTuple(flow.TupleOf(src, dst, flow.ProtoTCP, 1, 2), 10); v.Drop {
		t.Fatal("scan-shape filter matched wrong proto")
	}
}

func TestWildSegment(t *testing.T) {
	e, _ := newEngine(t, 8, 64, 64)
	// Block everything from one source, any destination.
	if err := e.Install(fromSource(addr(9)), 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if v := e.ClassifyTuple(flow.TupleOf(addr(9), addr(100+i), flow.ProtoUDP, 1, 2), 10); !v.Drop {
			t.Fatalf("wild filter missed dst %d", i)
		}
	}
	if v := e.ClassifyTuple(flow.TupleOf(addr(10), addr(100), flow.ProtoUDP, 1, 2), 10); v.Drop {
		t.Fatal("wild filter over-matched")
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1", e.Len())
	}
	if !e.Remove(fromSource(addr(9))) {
		t.Fatal("Remove(wild) = false")
	}
	if v := e.ClassifyTuple(flow.TupleOf(addr(9), addr(100), flow.ProtoUDP, 1, 2), 10); v.Drop {
		t.Fatal("removed wild filter still matched")
	}
}

func TestShadowHitSemantics(t *testing.T) {
	e, ck := newEngine(t, 4, 64, 64)
	src, dst, victim := addr(1), addr(2), addr(2)
	label := flow.PairLabel(src, dst)
	if !e.LogShadow(label, victim, 0, time.Minute) {
		t.Fatal("LogShadow failed")
	}
	// While a filter is live the shadow is not consulted.
	if err := e.Install(label, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if v := e.ClassifyTuple(flow.TupleOf(src, dst, flow.ProtoUDP, 1, 2), 10); !v.Drop || v.ShadowHit {
		t.Fatalf("want pure drop, got %+v", v)
	}
	// After the temporary filter lapses, the reappearance is reported.
	ck.set(2 * time.Second)
	v := e.ClassifyTuple(flow.TupleOf(src, dst, flow.ProtoUDP, 1, 2), 10)
	if v.Drop || !v.ShadowHit {
		t.Fatalf("want shadow hit, got %+v", v)
	}
	if v.Shadow.Reappearances != 1 || v.Shadow.Victim != victim {
		t.Fatalf("bad shadow snapshot: %+v", v.Shadow)
	}
	if _, ok := e.ShadowHit(label); !ok {
		t.Fatal("explicit ShadowHit failed")
	}
	if st := e.ShadowStats(); st.Hits != 2 {
		t.Fatalf("Hits = %d, want 2", st.Hits)
	}
	// Shadow expiry.
	ck.set(2 * time.Minute)
	if v := e.ClassifyTuple(flow.TupleOf(src, dst, flow.ProtoUDP, 1, 2), 10); v.ShadowHit {
		t.Fatal("expired shadow still hit")
	}
}

// TestShardInvariance is the acceptance-criteria check: the same
// install/classify trace yields identical verdicts for 1 and N shards.
func TestShardInvariance(t *testing.T) {
	const flows = 256
	mk := func(shards int) []Verdict {
		e, ck := newEngine(t, shards, flows*2, flows*2)
		for i := 0; i < flows; i += 2 { // block every even pair
			if err := e.Install(flow.PairLabel(addr(i), addr(i+1000)), 0, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < flows; i += 3 { // shadow-log every third pair
			e.LogShadow(flow.PairLabel(addr(i), addr(i+1000)), addr(i+1000), 0, 2*time.Minute)
		}
		ck.set(30 * time.Second)
		batch := make([]*packet.Packet, flows)
		for i := range batch {
			batch[i] = pkt(addr(i), addr(i+1000), 100)
		}
		return e.ClassifyInto(batch, nil)
	}
	want := mk(1)
	for _, shards := range []int{2, 4, 8} {
		got := mk(shards)
		for i := range want {
			if want[i].Drop != got[i].Drop || want[i].ShadowHit != got[i].ShadowHit {
				t.Fatalf("shards=%d: verdict %d = %+v, want %+v", shards, i, got[i], want[i])
			}
		}
	}
}

// TestBatchMatchesSingle checks ClassifyInto(batch) against per-packet
// ClassifyTuple on a fresh identical engine: whole verdicts (shadow
// snapshots included) and both stats blocks must agree. The table puts
// entries in the wild segment on the filter and the shadow side, and
// the traffic arrives interleaved across shards; it runs with shadow
// lookup on and off.
func TestBatchMatchesSingle(t *testing.T) {
	pfxSrc, fromSrc, wildDst := flow.MakeAddr(240, 1, 2, 0), addr(700), addr(1000)
	build := func(shadowLookup bool) *Engine {
		ck := &testClock{}
		e := New(Config{Shards: 4, FilterCapacity: 1024, ShadowCapacity: 1024,
			ShadowLookup: shadowLookup, Clock: ck})
		for i := 0; i < 64; i += 2 {
			e.Install(flow.PairLabel(addr(i), addr(i+500)), 0, time.Minute)
		}
		for i := 1; i < 64; i += 4 {
			e.LogShadow(flow.PairLabel(addr(i), addr(i+500)), addr(i+500), 0, time.Minute)
		}
		e.Install(flow.SrcPrefixLabel(pfxSrc, 24, addr(600)), 0, time.Minute)
		e.Install(fromSource(fromSrc), 0, time.Minute)
		e.LogShadow(flow.ToDestination(wildDst), wildDst, 0, time.Minute)
		if e.filters.wildLen.Load() != 2 || e.shadows.wildLen.Load() != 1 {
			t.Fatalf("wild segment holds %d filters, %d shadows; want 2, 1",
				e.filters.wildLen.Load(), e.shadows.wildLen.Load())
		}
		ck.set(time.Second)
		return e
	}
	var batch []*packet.Packet
	for i := 0; i < 64; i++ { // pair drops, pair shadow hits, misses
		batch = append(batch, pkt(addr(i), addr(i+500), 10+i))
	}
	for i := 0; i < 8; i++ {
		batch = append(batch,
			pkt(pfxSrc+flow.Addr(i), addr(600), 100+i), // source /24 drop
			pkt(pfxSrc+256+flow.Addr(i), addr(600), 1), // just outside the /24
			pkt(fromSrc, addr(800+i), 200+i),           // dst-wildcard drop
			pkt(addr(900+i), wildDst, 300+i))           // wildcard shadow hit
	}
	batch = append(batch, pkt(fromSrc, wildDst, 5)) // filter outranks shadow
	rand.New(rand.NewSource(1)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })

	for _, shadowLookup := range []bool{true, false} {
		t.Run(fmt.Sprintf("shadowlookup=%v", shadowLookup), func(t *testing.T) {
			eb, es := build(shadowLookup), build(shadowLookup)
			got := eb.ClassifyInto(batch, nil)
			wildHits := 0
			for i, p := range batch {
				want := es.ClassifyTuple(p.Tuple(), int(p.PayloadLen))
				if got[i] != want {
					t.Fatalf("packet %d: batch %+v, single %+v", i, got[i], want)
				}
				if want.ShadowHit && want.Shadow.Label == flow.ToDestination(wildDst).Key() {
					wildHits++
				}
			}
			want := 0
			if shadowLookup {
				want = 8
			}
			if wildHits != want {
				t.Fatalf("wildcard shadow hits = %d, want %d", wildHits, want)
			}
			if bs, ss := eb.FilterStats(), es.FilterStats(); bs != ss {
				t.Fatalf("filter stats diverge: batch %+v, single %+v", bs, ss)
			}
			if bs, ss := eb.ShadowStats(), es.ShadowStats(); bs != ss {
				t.Fatalf("shadow stats diverge: batch %+v, single %+v", bs, ss)
			}
		})
	}
}

// TestCapacityAccounting checks the global budget is enforced exactly
// and occupancy sums across shards.
func TestCapacityAccounting(t *testing.T) {
	const capacity = 32
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, _ := newEngine(t, shards, capacity, capacity)
			accepted := 0
			for i := 0; i < capacity*2; i++ {
				if err := e.Install(flow.PairLabel(addr(i), addr(i+500)), 0, time.Minute); err == nil {
					accepted++
				}
			}
			if accepted != capacity {
				t.Fatalf("accepted %d installs, want exactly %d", accepted, capacity)
			}
			sum := 0
			for i := 0; i < len(e.filters.shards); i++ {
				sum += e.ShardLen(i)
			}
			if sum != capacity || e.Len() != capacity {
				t.Fatalf("shard occupancy sums to %d (Len %d), want %d", sum, e.Len(), capacity)
			}
			st := e.FilterStats()
			if st.Installed != capacity || st.Rejected != capacity || st.PeakOccupancy != capacity {
				t.Fatalf("stats %+v, want installed/rejected/peak = %d", st, capacity)
			}
			// Refreshing an existing label never consumes capacity.
			if err := e.Install(flow.PairLabel(addr(0), addr(500)), 0, 2*time.Minute); err != nil {
				t.Fatalf("refresh rejected: %v", err)
			}
			if e.Len() != capacity {
				t.Fatalf("refresh changed Len to %d", e.Len())
			}
		})
	}
}

func TestExpireAndViews(t *testing.T) {
	e, ck := newEngine(t, 2, 16, 16)
	e.Install(flow.PairLabel(addr(1), addr(2)), 0, time.Second)
	e.Install(flow.PairLabel(addr(3), addr(4)), 0, time.Minute)
	e.LogShadow(flow.PairLabel(addr(1), addr(2)), addr(2), 0, time.Second)

	tv := e.Table()
	if tv.Len() != 2 || e.FilterCapacity() != 16 || e.ShadowCapacity() != 16 || e.ShadowLen() != 1 {
		t.Fatalf("views: filters %d/%d shadows %d/%d", tv.Len(), e.FilterCapacity(), e.ShadowLen(), e.ShadowCapacity())
	}
	ents := tv.Entries()
	if len(ents) != 2 || ents[0].ExpiresAt > ents[1].ExpiresAt {
		t.Fatalf("Entries not sorted by expiry: %+v", ents)
	}
	if _, ok := e.Get(flow.PairLabel(addr(3), addr(4)), ck.Now()); !ok {
		t.Fatal("Get missed live entry")
	}
	ck.set(2 * time.Second)
	if n := e.Expire(ck.Now()); n != 1 {
		t.Fatalf("Expire removed %d, want 1", n)
	}
	if n := e.ExpireShadows(ck.Now()); n != 1 {
		t.Fatalf("ExpireShadows removed %d, want 1", n)
	}
	if tv.Len() != 1 || e.ShadowLen() != 0 {
		t.Fatalf("after expiry: filters %d shadows %d", tv.Len(), e.ShadowLen())
	}
	if st := tv.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
}

// TestZeroViews: the zero views read as an empty table and log, the
// zeros a fresh engine's views report.
func TestZeroViews(t *testing.T) {
	fresh, _ := newEngine(t, 1, 16, 16)
	views := []struct {
		tv TableView
		sv ShadowView
	}{{TableView{}, ShadowView{}}, {fresh.Table(), fresh.Shadow()}}
	for i, v := range views {
		tv, sv := v.tv, v.sv
		if tv.Len() != 0 || tv.Stats() != (filter.Stats{}) || len(tv.Entries()) != 0 || sv.Stats() != (filter.ShadowStats{}) {
			t.Fatalf("views %d are not empty", i)
		}
	}
}

// TestConcurrentInstallExpireClassify is the -race workout: installs,
// removals, expiry, shadow logs, and classification all run at once.
func TestConcurrentInstallExpireClassify(t *testing.T) {
	e, ck := newEngine(t, 8, 512, 512)
	ck.set(time.Millisecond)
	const flows = 128
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: churn filters and shadows.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := (w*flows/4 + i) % flows
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
	// A clock mover.
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
	// Readers: classify batches and singles, snapshot views.
	var classified atomic.Uint64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			batch := make([]*packet.Packet, 32)
			for i := range batch {
				f := (r*8 + i) % flows
				batch[i] = pkt(addr(f), addr(f+1000), 64)
			}
			var verdicts []Verdict
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				verdicts = e.ClassifyInto(batch, verdicts)
				e.ClassifyTuple(batch[i%len(batch)].Tuple(), 64)
				classified.Add(uint64(len(batch) + 1))
				if i%64 == 0 {
					e.FilterEntries()
					e.FilterStats()
					e.ShadowStats()
				}
			}
		}(r)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if classified.Load() == 0 {
		t.Fatal("no classifications ran")
	}
	// Accounting still sums: Len equals per-shard sum.
	sum := 0
	for i := 0; i < len(e.filters.shards); i++ {
		sum += e.ShardLen(i)
	}
	if sum != e.Len() {
		t.Fatalf("Len %d != shard sum %d", e.Len(), sum)
	}
	st := e.FilterStats()
	total := int64(st.Installed) - int64(st.Expired) - int64(st.Removed)
	if int64(e.Len()) != total {
		t.Fatalf("Len %d inconsistent with stats %+v (want %d)", e.Len(), st, total)
	}
}

func TestShadowCapacityRejects(t *testing.T) {
	e, _ := newEngine(t, 2, 16, 4)
	ok := 0
	for i := 0; i < 8; i++ {
		if e.LogShadow(flow.PairLabel(addr(i), addr(i+500)), addr(i+500), 0, time.Minute) {
			ok++
		}
	}
	if ok != 4 {
		t.Fatalf("logged %d, want 4", ok)
	}
	if st := e.ShadowStats(); st.Rejected != 4 || st.PeakSize != 4 {
		t.Fatalf("shadow stats %+v", st)
	}
}

// TestNewClampsShards: New rounds a shard count up to a power of two
// but never above MaxShards, so the largest int builds MaxShards
// shards instead of looping forever on an overflowing doubling.
func TestNewClampsShards(t *testing.T) {
	clk := ClockFunc(func() filter.Time { return 0 })
	for _, c := range []struct{ in, want int }{
		{-1, 1}, {0, 1}, {3, 4}, {MaxShards, MaxShards}, {MaxShards + 1, MaxShards}, {math.MaxInt, MaxShards},
	} {
		if got := len(New(Config{Shards: c.in, Clock: clk}).filters.shards); got != c.want {
			t.Errorf("Shards %d built %d shards, want %d", c.in, got, c.want)
		}
	}
}

// fromSource matches all traffic from src regardless of destination.
func fromSource(src flow.Addr) flow.Label {
	return flow.Label{Src: src, Wildcards: flow.WildDst | flow.WildProto | flow.WildSrcPort | flow.WildDstPort}
}
