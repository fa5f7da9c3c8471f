// Command benchmark is the repo's benchmark of record: five workloads
// measured end to end (untraced) and layer by layer (traced), with
// output checks and a compare mode. See README.md in this directory.
//
//	go run ./benchmark                                  all workloads, untraced then traced
//	go run ./benchmark -workload fwd_clean -seconds 20  one untraced run
//	go run ./benchmark -workload fwd_clean -trace 1     its per-layer budget and span file
//	go run ./benchmark -compare a.json b.json           two result files against the bounds
//
// The last line of standard output is one JSON object with the run's
// correctness, operation counts and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outDir receives result and span files, relative to the directory the
// benchmark is run from (the repository root).
const outDir = "benchmark/out"

// environment is the fixed conditions a result was measured under.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

// results is the shape of every file the benchmark writes and -compare
// reads.
type results struct {
	Env  environment `json:"env"`
	Runs []*report   `json:"runs"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seeds every generator")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics and a span file); ignored with -workload all")
	compare := fs.Bool("compare", false, "compare two result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	// The fixed conditions: two Ps, whatever the host has.
	runtime.GOMAXPROCS(2)
	res := results{Env: environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Kernel:  kernelRelease(),
		Network: "host loopback interface, no real link",
	}}
	cfg := runConfig{seed: *seed, seconds: *seconds, sz: full}
	fmt.Fprintf(stdout, "# env: GOMAXPROCS=%d nproc=%d %s kernel=%s; all traffic crosses the %s\n",
		res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.GoVersion, res.Env.Kernel, res.Env.Network)

	var todo []*workload
	modes := []bool{*trace == 1}
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
		modes = []bool{false, true}
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	ok := true
	for _, w := range todo {
		for _, traced := range modes {
			rep := runOne(w, cfg, traced, outDir, stderr)
			res.Runs = append(res.Runs, rep)
			printReport(stdout, rep)
			ok = ok && rep.Correct
		}
	}
	file := "results.json"
	if *name != "all" {
		file = fmt.Sprintf("results-%s-trace%d.json", *name, *trace)
	}
	if err := writeJSON(filepath.Join(outDir, file), res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printLastLine(stdout, res.Runs)
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload in one mode. An error from the workload — an
// output check that failed, a socket that broke — marks the run
// incorrect; the metrics gathered so far are still reported. The traced
// run writes its span file into dir.
func runOne(w *workload, cfg runConfig, traced bool, dir string, stderr io.Writer) *report {
	rep := &report{Workload: w.Name, Trace: traced, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: map[string]Value{}}
	start := time.Now()
	run, defs := w.run, endToEnd
	if traced {
		cfg.spans = newSpans()
		run, defs = w.trace, perLayer
	}
	err := run(cfg, rep)
	if err == nil && traced {
		err = cfg.spans.write(filepath.Join(dir, "trace-"+w.Name+".json"))
	}
	rep.Correct = err == nil
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
	}
	if rep.Attempted == 0 {
		rep.Attempted = 1 // the run itself, which failed before its first operation
		rep.Failed = 1
	}
	rep.Metrics = complete(defs, rep.Metrics)
	rep.WallS = time.Since(start).Seconds()
	return rep
}

func printReport(w io.Writer, rep *report) {
	mode, defs := "untraced", endToEnd
	if rep.Trace {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %.1fs wall): correct=%v attempted=%d failed=%d fail_ratio=%g\n",
		rep.Workload, mode, rep.Seed, rep.WallS, rep.Correct, rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted))
	for _, d := range defs {
		v := rep.Metrics[d.Name]
		line := fmt.Sprintf("%-34s %16.4f %-6s", d.Name, v.Value, v.Unit)
		if len(v.Trials) > 0 {
			line += fmt.Sprintf(" trials=%s n=%d", compact(v.Trials), v.Samples)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

func compact(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printLastLine prints the one-object summary a driver reads. With a
// single run it is that run; with several, the operation counts add up
// and each metric is prefixed with its workload.
func printLastLine(w io.Writer, runs []*report) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, rep := range runs {
		last.Correct = last.Correct && rep.Correct
		last.Attempted += rep.Attempted
		last.Failed += rep.Failed
		for name, v := range rep.Metrics {
			if len(runs) > 1 {
				name = rep.Workload + "/" + name
			}
			last.Metrics[name] = metric{v.Value, v.Unit}
		}
	}
	b, err := json.Marshal(last)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// kernelRelease names the running kernel, or "" where the host does not
// say.
func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}
