package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smoke shrinks every workload to a few dozen milliseconds, so go test
// (and -race) keeps the benchmark compiling and its output checks live.
var smoke = sizes{
	minTrials:  2,
	fwdClean:   fwdSpec{pairFilters: 500},
	fwdAttack:  fwdSpec{pairFilters: 1500, prefixFilters: 100, attackPerBurst: 24, attackPerProbe: 3, detect: true},
	ringBursts: 16, ringPasses: 2, probeWindows: 1,
	rounds: roundsPerSeg, warmRounds: 10,
	zombies: 20, legit: 2, armyVirtual: time.Second,
	scenarios: scenariosPerSeg, warmScenarios: 1,
	stageBatches: 4,
}

func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			var stderr bytes.Buffer
			rep := runOne(w, runConfig{seed: 1, seconds: 0.05, sz: smoke}, traced, dir, &stderr)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d defined", w.Name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range endToEnd {
				if v := rep.Metrics[d.Name]; !traced && v.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, v.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the driver's view of the
// benchmark, in step with the tables this package reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why+" ("+w.Loop+")" {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q (%q)", i, got, w.Name, w.Why, w.Loop)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestCompare(t *testing.T) {
	run := func(pps float64, trials ...float64) *results {
		return &results{Runs: []*report{{Workload: "fwd_clean", Metrics: map[string]Value{
			"ops_per_s": {Value: pps, Unit: "1/s", Trials: trials}}}}}
	}
	base := run(100, 99, 100, 101)
	for _, c := range []struct {
		name string
		b    *results
		code int
		want string
	}{
		{"same", run(98, 97, 98, 99), 0, " ok"},
		{"slower", run(70, 69, 70, 71), 1, "REGRESSION"},
		{"noisy", run(95, 50, 95, 140), 0, "unresolved"},
	} {
		var out bytes.Buffer
		if code := compareResults(base, c.b, &out); code != c.code || !bytes.Contains(out.Bytes(), []byte(c.want)) {
			t.Errorf("%s: exit %d, want %d with %q in\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
	// Quartiles as Python's statistics.quantiles(n=4) gives them.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got < 0.99 || got > 1.01 {
		t.Errorf("spread of 1..10 = %v, want 5.5/5.5", got)
	}
}
