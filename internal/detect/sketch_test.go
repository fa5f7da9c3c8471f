package detect

import (
	"math/rand"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// zeroCells fails t if any cell of s holds a count.
func zeroCells(t *testing.T, s *sketch, when string) {
	t.Helper()
	for i, v := range s.cells {
		if v != 0 {
			t.Fatalf("%s: cell %d reads %d", when, i, v)
		}
	}
}

// TestRotateClearsEveryCell: after a rotation, and after Engine.Reset,
// every cell of the sketch reads 0.
func TestRotateClearsEveryCell(t *testing.T) {
	s := newSketch(64, 3, 5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s.add(rng.Uint64(), 1+uint64(rng.Intn(1500)))
	}
	s.rotate()
	zeroCells(t, s, "after rotate")

	e := New(testConfig())
	for i := 0; i < 500; i++ {
		src := flow.MakeAddr(10, 2, byte(rng.Intn(4)), byte(rng.Intn(40)))
		e.Observe(sim.Time(i)*time.Millisecond, []*packet.Packet{mkPkt(src, victim, 1+rng.Intn(1400))}, nil)
	}
	if e.MergeSize() == 0 {
		t.Fatal("the engine's sketch stayed empty")
	}
	e.Reset()
	zeroCells(t, e.cms, "after Engine.Reset")
}

// TestRotatedSketchReplaysLikeFresh: a stream played into a sketch after
// a rotation gives, add by add and key by key, the estimates the same
// stream gives on a sketch that never saw anything.
func TestRotatedSketchReplaysLikeFresh(t *testing.T) {
	type step struct{ key, n uint64 }
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	stream := make([]step, 5000)
	for i := range stream {
		stream[i] = step{keys[rng.Intn(len(keys))], 1 + uint64(rng.Intn(1500))}
	}
	used, fresh := newSketch(128, 4, 9), newSketch(128, 4, 9)
	for _, o := range stream {
		used.add(o.key^0x5a5a, o.n) // a different first window
	}
	used.rotate()
	for i, o := range stream {
		if got, want := used.add(o.key, o.n), fresh.add(o.key, o.n); got != want {
			t.Fatalf("add %d: rotated sketch estimates %d, fresh %d", i, got, want)
		}
	}
	for _, k := range keys {
		if got, want := used.estimate(k), fresh.estimate(k); got != want {
			t.Fatalf("key %x: rotated sketch estimates %d, fresh %d", k, got, want)
		}
	}
}
