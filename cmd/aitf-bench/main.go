// Command aitf-bench regenerates every experiment table of the paper's
// evaluation (see EXPERIMENTS.md). With no arguments it runs
// everything; pass experiment IDs (e.g. "E2 E8") to select. An unknown
// ID exits 2. Throughput is measured by the benchmark of record
// (go run ./benchmark) and the Go benchmark families, not here.
package main

import (
	"fmt"
	"io"
	"os"

	"aitf/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run renders the experiments named in ids (all of them when ids is
// empty) to stdout and returns the exit code.
func run(ids []string, stdout, stderr io.Writer) int {
	drivers, all := experiments.All()
	if len(ids) == 0 {
		ids = all
	}
	for _, id := range ids {
		d, ok := drivers[id]
		if !ok {
			fmt.Fprintf(stderr, "aitf-bench: unknown experiment %q (have %v)\n", id, all)
			return 2
		}
		res := d()
		res.Render(stdout)
	}
	return 0
}
