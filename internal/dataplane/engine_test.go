package dataplane

import (
	"fmt"
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
func newEngine(t *testing.T, shards, fcap, scap int, evict filter.EvictPolicy) (*Engine, *testClock) {
	t.Helper()
	ck := &testClock{}
	e := New(Config{
		Shards:         shards,
		FilterCapacity: fcap,
		ShadowCapacity: scap,
		Evict:          evict,
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
		e, _ := newEngine(t, tc.in, 16, 16, filter.RejectNew)
		if got := e.Shards(); got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestClassifyPairAndExact(t *testing.T) {
	e, ck := newEngine(t, 4, 64, 64, filter.RejectNew)
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
	e, _ := newEngine(t, 8, 64, 64, filter.RejectNew)
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
	e, _ := newEngine(t, 8, 64, 64, filter.RejectNew)
	// Block everything from one source, any destination.
	if err := e.Install(flow.FromSource(addr(9)), 0, time.Minute); err != nil {
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
	if !e.Remove(flow.FromSource(addr(9))) {
		t.Fatal("Remove(wild) = false")
	}
	if v := e.ClassifyTuple(flow.TupleOf(addr(9), addr(100), flow.ProtoUDP, 1, 2), 10); v.Drop {
		t.Fatal("removed wild filter still matched")
	}
}

func TestShadowHitSemantics(t *testing.T) {
	e, ck := newEngine(t, 4, 64, 64, filter.RejectNew)
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
		e, ck := newEngine(t, shards, flows*2, flows*2, filter.RejectNew)
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
		return e.Classify(batch)
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

// TestBatchMatchesSingle checks Classify(batch) against per-packet
// ClassifyTuple on a fresh identical engine.
func TestBatchMatchesSingle(t *testing.T) {
	build := func() (*Engine, *testClock) {
		e, ck := newEngine(t, 4, 1024, 1024, filter.RejectNew)
		for i := 0; i < 64; i += 2 {
			e.Install(flow.PairLabel(addr(i), addr(i+500)), 0, time.Minute)
		}
		for i := 1; i < 64; i += 4 {
			e.LogShadow(flow.PairLabel(addr(i), addr(i+500)), addr(i+500), 0, time.Minute)
		}
		ck.set(time.Second)
		return e, ck
	}
	batch := make([]*packet.Packet, 64)
	for i := range batch {
		batch[i] = pkt(addr(i), addr(i+500), 10+i)
	}
	eb, _ := build()
	got := eb.Classify(batch)
	es, _ := build()
	for i, p := range batch {
		want := es.ClassifyTuple(p.Tuple(), int(p.PayloadLen))
		if got[i].Drop != want.Drop || got[i].ShadowHit != want.ShadowHit {
			t.Fatalf("packet %d: batch %+v, single %+v", i, got[i], want)
		}
	}
	if bs, ss := eb.FilterStats(), es.FilterStats(); bs != ss {
		t.Fatalf("stats diverge: batch %+v, single %+v", bs, ss)
	}
}

// TestCapacityAccounting checks the global budget is enforced exactly
// and occupancy sums across shards.
func TestCapacityAccounting(t *testing.T) {
	const capacity = 32
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, _ := newEngine(t, shards, capacity, capacity, filter.RejectNew)
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
			for i := 0; i < e.Shards(); i++ {
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

func TestEvictSoonest(t *testing.T) {
	e, _ := newEngine(t, 4, 4, 4, filter.EvictSoonest)
	// Fill with staggered expiries; entry 0 expires soonest.
	for i := 0; i < 4; i++ {
		if err := e.Install(flow.PairLabel(addr(i), addr(i+500)), 0, time.Duration(i+1)*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Install(flow.PairLabel(addr(9), addr(509)), 0, time.Hour); err != nil {
		t.Fatalf("evicting install failed: %v", err)
	}
	if e.Len() != 4 {
		t.Fatalf("Len = %d, want 4", e.Len())
	}
	if v := e.ClassifyTuple(flow.TupleOf(addr(0), addr(500), flow.ProtoUDP, 1, 2), 1); v.Drop {
		t.Fatal("soonest-expiring entry was not the one evicted")
	}
	if v := e.ClassifyTuple(flow.TupleOf(addr(9), addr(509), flow.ProtoUDP, 1, 2), 1); !v.Drop {
		t.Fatal("new entry missing after eviction")
	}
	if st := e.FilterStats(); st.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", st.Evicted)
	}
}

func TestExpireAndViews(t *testing.T) {
	e, ck := newEngine(t, 2, 16, 16, filter.RejectNew)
	e.Install(flow.PairLabel(addr(1), addr(2)), 0, time.Second)
	e.Install(flow.PairLabel(addr(3), addr(4)), 0, time.Minute)
	e.LogShadow(flow.PairLabel(addr(1), addr(2)), addr(2), 0, time.Second)

	tv, sv := e.Table(), e.Shadow()
	if tv.Len() != 2 || tv.Capacity() != 16 || sv.Len() != 1 {
		t.Fatalf("views: filters %d/%d shadows %d", tv.Len(), tv.Capacity(), sv.Len())
	}
	ents := tv.Entries()
	if len(ents) != 2 || ents[0].ExpiresAt > ents[1].ExpiresAt {
		t.Fatalf("Entries not sorted by expiry: %+v", ents)
	}
	if _, ok := tv.Lookup(flow.PairLabel(addr(3), addr(4)), ck.Now()); !ok {
		t.Fatal("Lookup missed live entry")
	}
	ck.set(2 * time.Second)
	if n := tv.Expire(ck.Now()); n != 1 {
		t.Fatalf("Expire removed %d, want 1", n)
	}
	if n := sv.ExpireOld(ck.Now()); n != 1 {
		t.Fatalf("ExpireOld removed %d, want 1", n)
	}
	if tv.Len() != 1 || sv.Len() != 0 {
		t.Fatalf("after expiry: filters %d shadows %d", tv.Len(), sv.Len())
	}
	if st := tv.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
}

// TestConcurrentInstallExpireClassify is the -race workout: installs,
// removals, expiry, shadow logs, and classification all run at once.
func TestConcurrentInstallExpireClassify(t *testing.T) {
	e, ck := newEngine(t, 8, 512, 512, filter.RejectNew)
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
					e.RemoveShadow(label)
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
	for i := 0; i < e.Shards(); i++ {
		sum += e.ShardLen(i)
	}
	if sum != e.Len() {
		t.Fatalf("Len %d != shard sum %d", e.Len(), sum)
	}
	st := e.FilterStats()
	total := int64(st.Installed) - int64(st.Expired) - int64(st.Removed) - int64(st.Evicted)
	if int64(e.Len()) != total {
		t.Fatalf("Len %d inconsistent with stats %+v (want %d)", e.Len(), st, total)
	}
}

func TestShadowCapacityRejects(t *testing.T) {
	e, _ := newEngine(t, 2, 16, 4, filter.RejectNew)
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
