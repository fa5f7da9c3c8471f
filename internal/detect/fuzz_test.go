package detect

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/sim"
)

// FuzzSketch drives the whole engine — sketch updates, window
// rotations, Reset, top-k churn, baseline folds, estimate queries —
// from raw fuzz bytes, beside the dense sketch it must match. After
// every op it checks every key seen so far: the estimate equals the
// dense sketch's and is never below the true byte count within the
// current window; MergeSize and a sweep's detections equal the dense
// sketch's too. It must also simply not panic, whatever geometry and
// op sequence the fuzzer invents.
func FuzzSketch(f *testing.F) {
	// Seed corpus: a steady flood, a churny mix, and a rotation-heavy
	// trace.
	steady := make([]byte, 0, 128)
	for i := 0; i < 16; i++ {
		steady = append(steady, 1, 2, 3, 4, 0, 200, byte(i), 0)
	}
	f.Add(uint16(64), uint8(2), steady)
	churn := make([]byte, 0, 128)
	for i := 0; i < 16; i++ {
		churn = append(churn, byte(i), byte(i*7), 9, 9, 1, byte(i*13), 255, 1)
	}
	f.Add(uint16(16), uint8(1), churn)
	f.Add(uint16(1), uint8(16), []byte{0, 0, 0, 0, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, width uint16, depth uint8, ops []byte) {
		cfg := Config{
			Width:        int(width%2048) + 1,
			Depth:        int(depth%8) + 1,
			TopK:         8,
			Window:       100 * time.Millisecond,
			ThresholdBps: 40_000,
			Seed:         uint64(width)*31 + uint64(depth),
		}
		w := newTwin(cfg)
		var keys []uint64
		seen := map[uint64]bool{}
		now := sim.Time(0)

		// Each op is 8 bytes: src(2) dst(2) size(2) advance(1) kind(1).
		for len(ops) >= 8 {
			src := flow.Addr(binary.BigEndian.Uint16(ops[0:2]))
			dst := flow.Addr(binary.BigEndian.Uint16(ops[2:4]))
			size := int(binary.BigEndian.Uint16(ops[4:6]))
			now += sim.Time(ops[6]) * time.Millisecond
			kind := ops[7]
			ops = ops[8:]

			if key := pairKey(src, dst); !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
			switch kind % 4 {
			case 0, 1: // observe
				w.observe(t, now, src, dst, size)
			case 2: // query only: the clock step may rotate
			case 3: // empty the engine
				w.reset()
			}
			w.check(t, now, keys)
		}
		// The heavy-hitter budget must hold whatever happened.
		if got := w.e.hh.len(); got > 8 {
			t.Fatalf("top-k grew past its budget: %d", got)
		}
	})
}

// FuzzSketchMerge drives two shard engines the way a gateway cluster
// does — each op routed to exactly one engine by source parity, the
// disjoint-ownership discipline consistent hashing enforces — and, on
// ops that ask for it, a merge round: a view is Reset and both shards
// merged into it, as the cluster refills its merged view. Every engine
// runs beside a dense sketch, and after every op the engines it touched
// must read as their dense sketches do (see twin.check). At the end
// both shards merge into the view once more, which must keep the two
// bounds the cluster leans on: every merged estimate is at least the
// combined true in-window count (so at least either input's share),
// and every merged summary entry's count − err lower bound never
// exceeds that truth (so a merged detection can never frame an
// under-threshold flow). Last, the view is Reset and refilled, and
// must read as a new one does.
func FuzzSketchMerge(f *testing.F) {
	split := make([]byte, 0, 160)
	for i := 0; i < 20; i++ {
		// One heavy pair per shard parity plus light noise.
		split = append(split, byte(i%2), 4, 0, 9, 3, 232, byte(i), 0)
	}
	f.Add(uint16(128), uint8(3), split)
	rotating := make([]byte, 0, 128)
	for i := 0; i < 16; i++ {
		rotating = append(rotating, byte(i), 0, 0, 7, 0, 100, 60, byte(i%3/2))
	}
	f.Add(uint16(32), uint8(2), rotating)

	f.Fuzz(func(t *testing.T, width uint16, depth uint8, ops []byte) {
		cfg := Config{
			Width:        int(width%1024) + 1,
			Depth:        int(depth%6) + 1,
			TopK:         8,
			Window:       100 * time.Millisecond,
			ThresholdBps: 40_000,
			Seed:         uint64(width)*17 + uint64(depth),
		}
		shards := [2]*twin{newTwin(cfg), newTwin(cfg)}
		view := newTwin(cfg)
		var keys []uint64
		seen := map[uint64]bool{}
		now := sim.Time(0)

		mergeRound := func() {
			view.reset()
			for s, sh := range shards {
				if err := view.merge(now, sh); err != nil {
					t.Fatalf("shard %d refused to merge: %v", s, err)
				}
			}
		}

		// Each op is 8 bytes: src(2) dst(2) size(2) advance(1) kind(1).
		// An odd kind runs a merge round after the observation.
		for len(ops) >= 8 {
			src := flow.Addr(binary.BigEndian.Uint16(ops[0:2]))
			dst := flow.Addr(binary.BigEndian.Uint16(ops[2:4]))
			size := int(binary.BigEndian.Uint16(ops[4:6]))
			now += sim.Time(ops[6]) * time.Millisecond
			kind := ops[7]
			ops = ops[8:]

			if key := pairKey(src, dst); !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
			sh := shards[int(src)&1] // shard by source parity: disjoint ownership
			sh.observe(t, now, src, dst, size)
			sh.check(t, now, keys)
			if kind&1 == 1 {
				mergeRound()
				view.check(t, now, keys)
			}
		}

		// Merge both shards into the view at the final instant.
		mergeRound()
		for k, want := range view.truth {
			src := flow.Addr(k >> 32)
			dst := flow.Addr(k & 0xffffffff)
			if est := view.e.Estimate(now, src, dst); est < want {
				t.Fatalf("merged estimate %d < combined truth %d for %v->%v",
					est, want, src, dst)
			}
		}
		for i := range view.e.hh.entries {
			ent := &view.e.hh.entries[i]
			if low := ent.count - ent.err; low > view.truth[ent.key] {
				t.Fatalf("merged lower bound %d > truth %d for key %x: merge broke no-FP soundness",
					low, view.truth[ent.key], ent.key)
			}
		}
		if got := view.e.hh.len(); got > cfg.TopK {
			t.Fatalf("merged top-k grew past its budget: %d", got)
		}

		// The cluster empties and refills one view every round instead of
		// building a new one: the used view, Reset and merged into again,
		// must read exactly as a new view merged into does.
		var pairs [][2]flow.Addr
		for k := range view.truth {
			pairs = append(pairs, [2]flow.Addr{flow.Addr(k >> 32), flow.Addr(k & 0xffffffff)})
		}
		fresh := New(cfg)
		view.e.Sweep(now, nil) // leave flags and a detection count behind
		view.e.Reset()
		for s, sh := range shards {
			if err := fresh.Merge(now, sh.e); err != nil {
				t.Fatalf("shard %d refused to merge: %v", s, err)
			}
			if err := view.e.Merge(now, sh.e); err != nil {
				t.Fatalf("shard %d refused to merge after Reset: %v", s, err)
			}
		}
		if got, want := observe(view.e, now, pairs), observe(fresh, now, pairs); !reflect.DeepEqual(got, want) {
			t.Fatalf("reset view reads\n%+v\nnew view\n%+v", got, want)
		}
	})
}
