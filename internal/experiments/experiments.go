// Package experiments regenerates every quantity in the paper's
// evaluation (Section IV and the Figure-1 walk-through), one driver per
// experiment. Each driver builds its workload on the simulator, runs
// it, and renders paper-vs-measured tables. cmd/aitf-bench renders
// them; the top-level Go benchmarks (bench_test.go) and the tests run
// them too.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier used in EXPERIMENTS.md
	// (E1..E9).
	ID string
	// Title names the experiment after its paper location.
	Title string
	// Tables are the regenerated rows.
	Tables []*Table
	// Notes summarise the comparison against the paper's claims.
	Notes []string
}

// Render writes the result to w.
func (r Result) Render(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s\n", n)
	}
	fmt.Fprintln(w)
}

// Driver runs one experiment.
type Driver func() Result

// All returns every experiment driver keyed by ID, plus the sorted IDs.
func All() (map[string]Driver, []string) {
	m := map[string]Driver{
		"E1":  E1Figure1,
		"E2":  E2EffectiveBandwidth,
		"E3":  E3ProtectedFlows,
		"E4":  E4VictimGatewayResources,
		"E5":  E5AttackerGatewayResources,
		"E6":  E6OnOffAblation,
		"E7":  E7HandshakeSecurity,
		"E8":  E8AITFvsPushback,
		"E9":  E9ContractPolicing,
		"E13": E13DetectionLatency,
		"E15": E15CollateralAllocation,
		"E16": E16Resilience,
		"E17": E17ClusterFailover,
	}
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return m, ids
}
