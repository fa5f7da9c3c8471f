package detect

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/sim"
)

// observable is everything an engine lets a caller see: the ground on
// which a Reset engine and a freshly built one must agree.
type observable struct {
	Estimates []uint64
	TopK      []HeavyHitter
	MergeSize int
	Swept     []Detection
	Stats     Stats // read after the sweep, so it counts Swept
}

// observe reads e at now over the given (src, dst) pairs. The sweep
// flags what it reports, so observe is the last thing done to e.
func observe(e *Engine, now sim.Time, pairs [][2]flow.Addr) observable {
	var o observable
	for _, p := range pairs {
		o.Estimates = append(o.Estimates, e.Estimate(now, p[0], p[1]))
	}
	o.TopK = e.TopK()
	o.MergeSize = e.MergeSize()
	o.Swept = e.Sweep(now, nil)
	o.Stats = e.Stats()
	return o
}

// resetPairs is the key pool of the reset scripts: more pairs than the
// summary holds, so scripts evict, and few enough that they collide in
// the sketch.
func resetPairs() [][2]flow.Addr {
	var pairs [][2]flow.Addr
	for s := flow.Addr(1); s <= 12; s++ {
		for d := flow.Addr(100); d < 103; d++ {
			pairs = append(pairs, [2]flow.Addr{s, d})
		}
	}
	return pairs
}

// drive plays the seed's script into e from time start and returns the
// time it ended at: observations (heavy and light), clock steps that
// cross zero, one or several window boundaries, merges of a side engine
// the script feeds (built here, so every replay merges an identical
// one), flags and sweeps.
func drive(e *Engine, seed int64, start sim.Time) sim.Time {
	rng := rand.New(rand.NewSource(seed))
	pairs := resetPairs()
	side := New(e.Config())
	now := start
	for i, n := 0, 200+rng.Intn(400); i < n; i++ {
		p := pairs[rng.Intn(len(pairs))]
		switch op := rng.Intn(20); {
		case op < 12:
			e.ObserveTuple(now, tupleOf(p[0], p[1]), 100+rng.Intn(3000))
		case op < 15:
			side.ObserveTuple(now, tupleOf(p[0], p[1]), 100+rng.Intn(3000))
		case op < 17:
			now += sim.Time(rng.Intn(120)) * time.Millisecond
		case op == 17:
			now += sim.Time(rng.Intn(4)) * e.Config().Window
		case op == 18:
			if err := e.Merge(now, side); err != nil {
				panic(err)
			}
			side = New(e.Config()) // one contribution per source: see merge.go
		default:
			if rng.Intn(2) == 0 {
				e.Flag(now, p[0], p[1])
			} else {
				e.Sweep(now, nil)
			}
		}
	}
	return now
}

// TestResetEqualsNew: whatever an engine has been through — evictions,
// rotations, merges, flags — Reset leaves nothing of it behind. A reset
// engine fed a second script is indistinguishable from a new engine fed
// that script alone.
func TestResetEqualsNew(t *testing.T) {
	cfg := mergeCfg()
	cfg.TopK = 8
	cfg.BaselineRel = 1.5 // exercise the baselines' reset as well
	pairs := resetPairs()
	for seed := int64(1); seed <= 50; seed++ {
		used := New(cfg)
		mid := drive(used, 2*seed, 0)
		if used.Stats().Packets == 0 || len(used.TopK()) == 0 {
			t.Fatalf("seed %d: the first script left the engine empty", seed)
		}
		used.Reset()
		if got, want := observe(used, mid, pairs), observe(New(cfg), mid, pairs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: a reset engine reads\n%+v\na new one\n%+v", seed, got, want)
		}
		used.Reset() // the observation anchored its window

		fresh := New(cfg)
		end := drive(used, 2*seed+1, mid)
		if drive(fresh, 2*seed+1, mid) != end {
			t.Fatalf("seed %d: the script is not a function of its seed", seed)
		}
		for _, dst := range []flow.Addr{100, 101, 102} {
			if got, want := used.Baseline(dst), fresh.Baseline(dst); got != want {
				t.Fatalf("seed %d: baseline of %v is %v after Reset, %v on a new engine", seed, dst, got, want)
			}
		}
		if got, want := observe(used, end, pairs), observe(fresh, end, pairs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: after the second script the reset engine reads\n%+v\nthe new one\n%+v", seed, got, want)
		}
	}
}
