package cluster

import (
	"runtime"
	"testing"
	"time"

	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/sim"
)

// TestMergeRoundsAllocateNoSketch runs 200 armed merge rounds over
// three replicas, with a replica killed after round 100 and restored
// after round 150, and pins two things. A steady-state round allocates
// less than a tenth of one sketch — it used to build k+1 engines, four
// sketches and more. And a dead replica's frozen summary is left alone:
// the rounds after its death neither empty it nor refill it, and the
// restored replica gets a new one.
func TestMergeRoundsAllocateNoSketch(t *testing.T) {
	det := detect.Config{Window: 250 * time.Millisecond, ThresholdBps: 40_000, Seed: 7}
	c := New(Config{Replicas: 3, HashSeed: 42, Replicate: true}, det)
	eff := c.view.Config()
	budget := uint64(eff.Width*eff.Depth*16) / 10

	// Every round each of 40 flows carries 1 kB, a tenth of the
	// threshold, and every tenth round a filter is installed to expire a
	// few rounds later, so the log-shipping and expiry steps run too.
	now := sim.Time(0)
	round := func(i int) {
		for src := flow.Addr(1); src <= 40; src++ {
			observe(c, now, src, 9, 2, 500)
		}
		if i%10 == 0 {
			c.Record(OpInstall, flow.PairLabel(flow.Addr(i+1), 9), now+3*eff.Window, now)
		}
		now += eff.Window
		c.MergeRound(now)
	}
	// perRound is the bytes one round of [from, to) allocates.
	perRound := func(from, to int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := from; i < to; i++ {
			round(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(to-from)
	}

	perRound(0, 20) // scratch and log reach their working size
	if got := perRound(20, 100); got > budget {
		t.Fatalf("a round over 3 live replicas allocates %d B, budget %d B (a sketch is %d B)", got, budget, 10*budget)
	}

	if _, _, ok := c.KillReplica(1, now); !ok {
		t.Fatal("could not kill replica 1")
	}
	frozen := c.reps[1].sum
	held := len(frozen.TopK())
	if held == 0 {
		t.Fatal("replica 1 died holding an empty summary: the test would show nothing")
	}
	checkFrozen := func(when string) {
		t.Helper()
		if got := len(frozen.TopK()); got != held {
			t.Fatalf("%s: the dead replica's summary holds %d keys, %d at its death: it was reset", when, got, held)
		}
	}
	rotations := frozen.Stats().Rotations
	for i := 100; i < 150; i += 10 {
		if got := perRound(i, i+10); got > budget {
			t.Fatalf("a round with replica 1 dead allocates %d B, budget %d B", got, budget)
		}
		if c.reps[1].sum != frozen {
			t.Fatal("the dead replica's summary was replaced")
		}
		checkFrozen("while dead")
		// The view still merges it, which rotates it: its counters only
		// ever move forward.
		if r := frozen.Stats().Rotations; r < rotations {
			t.Fatalf("the dead replica's summary went from %d rotations to %d: it was reset", rotations, r)
		} else {
			rotations = r
		}
	}

	st := c.ExportState()
	st.Alive[1] = true
	c.ImportState(st, now)
	if r := c.reps[1]; !r.alive || r.eng == nil || r.sum == nil {
		t.Fatalf("replica 1 not restored: %+v", r)
	} else if r.sum == frozen {
		t.Fatal("the restored replica reuses the summary frozen at its death")
	}
	perRound(150, 160) // the new engines' merge scratch grows once
	if got := perRound(160, 200); got > budget {
		t.Fatalf("a round after the restore allocates %d B, budget %d B", got, budget)
	}
	checkFrozen("after the restore")
	if r := frozen.Stats().Rotations; r != rotations {
		t.Fatalf("the dropped summary rotated %d → %d after the restore: something still merges it", rotations, r)
	}
	if c.Stats().MergeRounds != 200 {
		t.Fatalf("ran %d merge rounds, want 200", c.Stats().MergeRounds)
	}
}
