package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints, for every workload and metric two result files
// share, both values, how much worse the second is, and the bound. It
// returns 1 when an end-to-end metric of the second file is worse than
// the first by more than its bound, 0 otherwise. A metric inside its
// bound whose own trials spread wider than the bound is "unresolved":
// the runs cannot tell a change of that size from noise.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *results
		if b, err = readResults(pathB); err == nil {
			return compareResults(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareResults(a, b *results, w io.Writer) int {
	code := 0
	for _, ra := range a.Runs {
		var rb *report
		for _, r := range b.Runs {
			if r.Workload == ra.Workload && r.Trace == ra.Trace {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		defs := endToEnd
		if ra.Trace {
			defs = perLayer
		}
		fmt.Fprintf(w, "\n== %s (trace %v)\n%-34s %16s %16s %9s %7s  %s\n",
			ra.Workload, ra.Trace, "metric", "a", "b", "worse by", "bound", "verdict")
		for _, d := range defs {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			if va.Value == 0 && vb.Value == 0 {
				continue // a layer this workload never enters
			}
			worse := 0.0
			if va.Value != 0 {
				worse = (vb.Value - va.Value) / va.Value
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict, bound := "", ""
			switch {
			case d.Exact && va.Value != vb.Value:
				verdict = "differs (exact count)"
			case d.Bound == 0:
			case worse > d.Bound:
				verdict, code = "REGRESSION", 1
			case spread(va.Trials) > d.Bound || spread(vb.Trials) > d.Bound:
				verdict = "unresolved"
			default:
				verdict = "ok"
			}
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.2f", d.Bound)
			}
			fmt.Fprintf(w, "%-34s %16.4f %16.4f %+8.1f%% %7s  %s\n", d.Name, va.Value, vb.Value, 100*worse, bound, verdict)
		}
	}
	return code
}

// spread is the distance between the first and third quartile of vs as
// a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives; 0 for fewer than two values.
func spread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j, delta := i*(n+1)/4, float64(i*(n+1)%4)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}
