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
// rotations, top-k churn, baseline folds, estimate queries — from raw
// fuzz bytes and checks the load-bearing invariant on every query: a
// count-min estimate is never below the true byte count within the
// current window. It must also simply not panic, whatever geometry and
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
		e := New(cfg)

		// Shadow model: exact per-key byte counts for the engine's
		// current window. The engine rotates on boundaries aligned to
		// its first observation; mirror that alignment exactly.
		truth := map[uint64]uint64{}
		var winStart sim.Time
		started := false
		now := sim.Time(0)

		// Each op is 8 bytes: src(2) dst(2) size(2) advance(1) kind(1).
		for len(ops) >= 8 {
			src := flow.Addr(binary.BigEndian.Uint16(ops[0:2]))
			dst := flow.Addr(binary.BigEndian.Uint16(ops[2:4]))
			size := int(binary.BigEndian.Uint16(ops[4:6]))
			now += sim.Time(ops[6]) * time.Millisecond
			kind := ops[7]
			ops = ops[8:]

			if !started {
				started = true
				winStart = now
			}
			if now-winStart >= cfg.Window {
				winStart += cfg.Window * ((now - winStart) / cfg.Window)
				truth = map[uint64]uint64{}
			}

			switch kind % 3 {
			case 0, 1: // observe
				e.ObserveTuple(now, flow.TupleOf(src, dst, flow.ProtoUDP, 1, 2), size)
				truth[pairKey(src, dst)] += uint64(size)
				fallthrough
			case 2: // query
				est := e.Estimate(now, src, dst)
				if est < truth[pairKey(src, dst)] {
					t.Fatalf("estimate %d < true %d for %v->%v (width %d depth %d)",
						est, truth[pairKey(src, dst)], src, dst, cfg.Width, cfg.Depth)
				}
			}
		}
		// The heavy-hitter budget must hold whatever happened.
		if got := e.hh.len(); got > 8 {
			t.Fatalf("top-k grew past its budget: %d", got)
		}
	})
}

// FuzzSketchMerge drives two shard engines the way a gateway cluster
// does — each op routed to exactly one engine by source parity, the
// disjoint-ownership discipline consistent hashing enforces — then
// merges both into a fresh view and checks the two bounds the cluster
// leans on: every merged estimate is at least the combined true
// in-window count (so at least either input's share), and every
// merged summary entry's count − err lower bound never exceeds that
// truth (so a merged detection can never frame an under-threshold
// flow). Last, the view is Reset and refilled, and must read as a new
// one does.
func FuzzSketchMerge(f *testing.F) {
	split := make([]byte, 0, 160)
	for i := 0; i < 20; i++ {
		// One heavy pair per shard parity plus light noise.
		split = append(split, byte(i%2), 4, 0, 9, 3, 232, byte(i), 0)
	}
	f.Add(uint16(128), uint8(3), split)
	rotating := make([]byte, 0, 128)
	for i := 0; i < 16; i++ {
		rotating = append(rotating, byte(i), 0, 0, 7, 0, 100, 60, 0)
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
		engines := [2]*Engine{New(cfg), New(cfg)}

		// Shadow model per shard, mirroring each engine's own window
		// alignment (anchored at its first observation).
		truth := [2]map[uint64]uint64{{}, {}}
		var winStart [2]sim.Time
		var started [2]bool
		now := sim.Time(0)

		rotateMirror := func(s int, at sim.Time) {
			if !started[s] {
				started[s] = true
				winStart[s] = at
				return
			}
			if at-winStart[s] >= cfg.Window {
				winStart[s] += cfg.Window * ((at - winStart[s]) / cfg.Window)
				truth[s] = map[uint64]uint64{}
			}
		}

		// Each op is 8 bytes: src(2) dst(2) size(2) advance(1) spare(1).
		for len(ops) >= 8 {
			src := flow.Addr(binary.BigEndian.Uint16(ops[0:2]))
			dst := flow.Addr(binary.BigEndian.Uint16(ops[2:4]))
			size := int(binary.BigEndian.Uint16(ops[4:6]))
			now += sim.Time(ops[6]) * time.Millisecond
			ops = ops[8:]

			s := int(src) & 1 // shard by source parity: disjoint ownership
			rotateMirror(s, now)
			engines[s].ObserveTuple(now, flow.TupleOf(src, dst, flow.ProtoUDP, 1, 2), size)
			truth[s][pairKey(src, dst)] += uint64(size)
		}

		// Merge both shards into a fresh view at the final instant.
		// Merge rotates each input to now first; mirror that.
		for s := range engines {
			if started[s] {
				rotateMirror(s, now)
			}
		}
		view := New(cfg)
		for s, e := range engines {
			if err := view.Merge(now, e); err != nil {
				t.Fatalf("shard %d refused to merge: %v", s, err)
			}
		}

		combined := map[uint64]uint64{}
		for s := range truth {
			for k, v := range truth[s] {
				combined[k] += v
			}
		}
		for k, want := range combined {
			src := flow.Addr(k >> 32)
			dst := flow.Addr(k & 0xffffffff)
			if est := view.Estimate(now, src, dst); est < want {
				t.Fatalf("merged estimate %d < combined truth %d for %v->%v",
					est, want, src, dst)
			}
		}
		for i := range view.hh.entries {
			ent := &view.hh.entries[i]
			if low := ent.count - ent.err; low > combined[ent.key] {
				t.Fatalf("merged lower bound %d > truth %d for key %x: merge broke no-FP soundness",
					low, combined[ent.key], ent.key)
			}
		}
		if got := view.hh.len(); got > cfg.TopK {
			t.Fatalf("merged top-k grew past its budget: %d", got)
		}

		// The cluster empties and refills one view every round instead of
		// building a new one: the used view, Reset and merged into again,
		// must read exactly as a new view merged into does.
		var pairs [][2]flow.Addr
		for k := range combined {
			pairs = append(pairs, [2]flow.Addr{flow.Addr(k >> 32), flow.Addr(k & 0xffffffff)})
		}
		fresh := New(cfg)
		view.Sweep(now, nil) // leave flags and a detection count behind
		view.Reset()
		for s, e := range engines {
			if err := fresh.Merge(now, e); err != nil {
				t.Fatalf("shard %d refused to merge: %v", s, err)
			}
			if err := view.Merge(now, e); err != nil {
				t.Fatalf("shard %d refused to merge after Reset: %v", s, err)
			}
		}
		if got, want := observe(view, now, pairs), observe(fresh, now, pairs); !reflect.DeepEqual(got, want) {
			t.Fatalf("reset view reads\n%+v\nnew view\n%+v", got, want)
		}
	})
}
