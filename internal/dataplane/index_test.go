package dataplane

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"aitf/internal/filter"
	"aitf/internal/flow"
)

// TestNestedPrefixChargeOrder pins which of several covering source
// prefixes a packet is charged to: the shortest one, on both the filter
// and the shadow side, whatever the install order, and across directory
// rebuilds. The per-filter drop counters (and the reappearance counts)
// an operator reads depend on it.
func TestNestedPrefixChargeOrder(t *testing.T) {
	src, dst := flow.MakeAddr(240, 7, 8, 9), addr(2000)
	l16 := flow.SrcPrefixLabel(src, 16, dst)
	l24 := flow.SrcPrefixLabel(src, 24, dst)
	l28 := flow.SrcPrefixLabel(src, 28, dst)
	tup := flow.TupleOf(src, dst, flow.ProtoUDP, 1000, 80)

	// Deadlines: a record leaves the shadow side only by expiry, so each
	// label the test takes out is the next one due when it goes.
	const (
		scanLife = time.Second    // the rebuild's scan-shaped label
		l16Life  = 2 * time.Hour  // the /16, taken out after the first rebuild
		longLife = 10 * time.Hour // everything else
	)
	sides := []struct {
		name   string
		add    func(e *Engine, l flow.Label, exp filter.Time)
		remove func(e *Engine, ck *testClock, l flow.Label) bool
		hits   func(*Engine, flow.Label) uint64 // packets charged to the label
		hit    func(Verdict) bool
	}{
		{
			name: "filters",
			add: func(e *Engine, l flow.Label, exp filter.Time) {
				if err := e.Install(l, 0, exp); err != nil {
					t.Fatal(err)
				}
			},
			remove: func(e *Engine, _ *testClock, l flow.Label) bool { return e.Remove(l) },
			hits: func(e *Engine, l flow.Label) uint64 {
				en, _ := e.Get(l, 0)
				return en.Drops
			},
			hit: func(v Verdict) bool { return v.Drop },
		},
		{
			name: "shadows",
			add: func(e *Engine, l flow.Label, exp filter.Time) {
				if !e.LogShadow(l, dst, 0, exp) {
					t.Fatal("LogShadow rejected below capacity")
				}
			},
			remove: func(e *Engine, ck *testClock, l flow.Label) bool {
				en, ok := e.ShadowGet(l, ck.Now())
				if !ok {
					return false
				}
				ck.set(en.ExpiresAt)
				return e.ExpireShadows(en.ExpiresAt) == 1
			},
			hits: func(e *Engine, l flow.Label) uint64 {
				en, _ := e.ShadowGet(l, 0)
				return uint64(en.Reappearances)
			},
			hit: func(v Verdict) bool { return v.ShadowHit },
		},
	}
	for _, sd := range sides {
		t.Run(sd.name, func(t *testing.T) {
			e, ck := newEngine(t, 4, 1024, 1024)
			// Longest first, so install order and length order disagree.
			sd.add(e, l28, longLife)
			sd.add(e, l24, longLife)
			sd.add(e, l16, l16Life)
			charged := func(want flow.Label) {
				t.Helper()
				before := map[flow.Label]uint64{}
				for _, l := range []flow.Label{l16, l24, l28} {
					before[l] = sd.hits(e, l)
				}
				if v := e.ClassifyTuple(tup, 100); !sd.hit(v) {
					t.Fatalf("covered tuple not caught: %+v", v)
				}
				for _, l := range []flow.Label{l16, l24, l28} {
					got, wantN := sd.hits(e, l)-before[l], uint64(0)
					if l == want {
						wantN = 1
					}
					if got != wantN {
						t.Fatalf("%v charged %d, want %d (winner should be %v)", l, got, wantN, want)
					}
				}
			}
			// rebuild forces a whole-view rebuild of the segment holding
			// the prefixes: a scan-shaped label in and out, and enough
			// unrelated /24s to grow every directory.
			rebuild := func(round int) {
				t.Helper()
				scan := fromSource(flow.MakeAddr(241, 0, 0, byte(round)))
				sd.add(e, scan, ck.Now()+scanLife)
				for i := 0; i < 64; i++ {
					sd.add(e, flow.SrcPrefixLabel(flow.MakeAddr(242, byte(round), byte(i), 0), 24, dst), longLife)
				}
				if !sd.remove(e, ck, scan) {
					t.Fatal("remove of the scan-shaped label failed")
				}
			}
			charged(l16)
			rebuild(1)
			charged(l16)
			if !sd.remove(e, ck, l16) {
				t.Fatal("remove /16 failed")
			}
			charged(l24)
			rebuild(2)
			charged(l24)
		})
	}
}

// TestHeapBytesPerFilter bounds the live heap a record costs the
// engine, on the fwd_attack table in a 2-shard engine: the "bounded
// amount of router resources" the filter bank and the shadow log are
// sized by. Both tables hold the same record, so each gets the same
// 64k labels and the same budget: Install for the filter bank, and
// LogShadow for the shadow log. It reads HeapInuse, as the benchmark's
// mem_mb does, so the spans that churned buckets leave part-filled
// count against the table; two collections settle the heap before each
// reading.
func TestHeapBytesPerFilter(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap readings")
	}
	const budget = 120 // bytes of live heap per record
	labels := fwdAttackLabels()
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	for _, tc := range []struct {
		name  string
		write func(*Engine, flow.Label) bool
	}{
		{"filters", func(e *Engine, l flow.Label) bool { return e.Install(l, 0, time.Hour) == nil }},
		{"shadows", func(e *Engine, l flow.Label) bool { return e.LogShadow(l, l.Dst, 0, time.Hour) }},
	} {
		before := live()
		e := New(Config{Shards: 2, FilterCapacity: len(labels), ShadowCapacity: len(labels),
			Clock: steadyClock{}})
		for _, l := range labels {
			if !tc.write(e, l) {
				t.Fatalf("%s: %v rejected", tc.name, l)
			}
		}
		after := live()
		runtime.KeepAlive(e)
		runtime.KeepAlive(labels) // live at both readings, so outside the delta
		per := float64(int64(after)-int64(before)) / float64(len(labels))
		t.Logf("%d %s: %.1f B of live heap per record (budget %d)", len(labels), tc.name, per, budget)
		if per > budget {
			t.Errorf("%s: %.1f B of live heap per record, budget %d", tc.name, per, budget)
		}
	}
}

// TestRecordSize pins the record both tables hold to the 48-byte size
// class: one more field would move every filter and shadow record into
// the 64-byte class.
func TestRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for a 64-bit word")
	}
	if n := unsafe.Sizeof(record{}); n != 48 {
		t.Fatalf("record is %d bytes, want 48", n)
	}
}

// TestBucketPublishRace is the -race workout for append-in-place
// buckets: one writer installs (appending, growing buckets and resizing
// directories) and removes filters of every indexed shape under the
// shard locks, while readers scan every published bucket of every
// directory lock-free. Each slot a reader sees must hold an entry whose
// tag is the key its directory hashes that entry's label to, in the
// bucket that key selects.
func TestBucketPublishRace(t *testing.T) {
	e, _ := newEngine(t, 2, 1<<16, 1)
	labels := make([]flow.Label, 0, 1536)
	for i := 0; i < 512; i++ {
		src, dst := addr(i), addr(4000+i%16)
		labels = append(labels,
			flow.PairLabel(src, dst),
			flow.Label{Src: src, Dst: dst, Proto: flow.ProtoUDP, Wildcards: flow.WildSrcPort | flow.WildDstPort}.Canonical(),
			flow.SrcPrefixLabel(flow.MakeAddr(240, byte(i>>8), byte(i), 0), uint8(16+i%13), dst))
	}
	scan := func(d directory, key func(flow.Label) uint32) {
		for i := range d {
			b := d[i].Load()
			if b == nil {
				continue
			}
			for _, sl := range b.s[:b.n.Load()] {
				if sl.r == nil {
					t.Error("published slot holds no record")
					return
				}
				if k := key(sl.r.label); sl.tag != k || int(k&uint32(len(d)-1)) != i {
					t.Errorf("slot tag %#x in bucket %d, label %v keys to %#x", sl.tag, i, sl.r.label, k)
					return
				}
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.filters.each(func(s *seg, _ bool) {
					v := s.view.Load()
					scan(v.main, labelHash)
					scan(v.dst, func(l flow.Label) uint32 { return addrHash(uint32(l.Dst)) })
					scan(v.pfx, func(l flow.Label) uint32 { return pfxHash(uint32(l.Src), l.SrcPrefixLen) })
				})
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 6 && !t.Failed(); round++ {
		for _, l := range labels {
			if err := e.Install(l, 0, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range rng.Perm(len(labels)) {
			e.Remove(labels[i])
		}
	}
	close(stop)
	wg.Wait()
}

// recount derives from a view's entries what its probe gates must say:
// the exact- and pair-shaped counts and the mask of source-prefix
// lengths present.
func recount(v *view) (exact, pair int32, plens uint32) {
	v.each(func(r *record) {
		switch l := r.label; labelShape(l) {
		case shapeExact:
			exact++
		case shapePair:
			pair++
		case shapeSrcPfx:
			plens |= 1 << l.SrcPrefixLen
		}
	})
	return exact, pair, plens
}

// TestProbeCountsMatchRecount checks the probe gates against the
// entries they summarize after a randomized stream of installs,
// removals, aggregations, expiry sweeps and directory resizes, on the
// filter and the shadow side of every segment: a gate that reads low
// would skip a probe that can hit. The wild segment never holds an
// exact or pair label, so its gates must stay shut.
func TestProbeCountsMatchRecount(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, ck := newEngine(t, 4, 1<<20, 1<<20)
		check := func(op int) {
			t.Helper()
			for name, tb := range map[string]*table{"filters": &e.filters, "shadows": &e.shadows} {
				i := 0
				tb.each(func(s *seg, wild bool) {
					v := s.view.Load()
					ex, pr, pl := recount(v)
					if v.exact.Load() != ex || v.pair.Load() != pr || v.plens.Load() != pl {
						t.Fatalf("seed %d op %d seg %d %s: gates exact=%d pair=%d plens=%#x, recount %d %d %#x",
							seed, op, i, name, v.exact.Load(), v.pair.Load(), v.plens.Load(), ex, pr, pl)
					}
					if wild && v.exact.Load()+v.pair.Load() != 0 {
						t.Fatalf("seed %d op %d: wild segment holds exact or pair %s", seed, op, name)
					}
					i++
				})
			}
		}
		for op := 0; op < 2000; op++ {
			now := ck.Now()
			switch l := randomLabel(rng, 64); rng.Intn(8) {
			case 0, 1:
				e.Install(l, now, now+filter.Time(rng.Intn(50)+1)*time.Millisecond)
			case 2:
				e.LogShadow(l, l.Dst, now, now+filter.Time(rng.Intn(50)+1)*time.Millisecond)
			case 3:
				e.Remove(l)
			case 4: // aggregate whatever /24 siblings are installed
				if groups := filter.SiblingGroups(e.FilterEntries(), 24); len(groups) > 0 {
					g := groups[rng.Intn(len(groups))]
					e.Aggregate(g.Aggregate, g.ChildLabels(), now, now+10*time.Millisecond)
				}
			case 5:
				ck.advance(time.Duration(rng.Intn(20)) * time.Millisecond)
				e.Expire(ck.Now())
				e.ExpireShadows(ck.Now())
			case 6: // a burst of fresh labels: grows, then shrinks, the directories
				burst := make([]flow.Label, 100)
				for i := range burst {
					burst[i] = randomLabel(rng, 4096)
					e.Install(burst[i], now, now+time.Hour)
				}
				check(op)
				for _, b := range burst {
					e.Remove(b)
				}
			case 7:
				e.Install(l, now, now+time.Hour)
				e.LogShadow(l, l.Dst, now, now+time.Hour)
			}
			check(op)
		}
	}
}
