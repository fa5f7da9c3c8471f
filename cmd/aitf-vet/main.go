// Command aitf-vet runs the repo's custom static-analysis suite
// (internal/analysis): atomicfield, determinism, metricname and
// poolsafety, plus the -noalloc allocation gate. It is the
// compile-time enforcement of the invariants the protocol stack
// depends on — see the "Static analysis" section of the README.
//
// Standalone (the CI gate):
//
//	go run ./cmd/aitf-vet ./...
//	go run ./cmd/aitf-vet -noalloc ./...
//	go run ./cmd/aitf-vet -analyzers determinism,atomicfield ./internal/core/...
//
// As a go vet tool (slower — each compilation unit re-analyzes from
// source so annotation comments are visible):
//
//	go build -o /tmp/aitf-vet ./cmd/aitf-vet
//	go vet -vettool=/tmp/aitf-vet ./...
//
// Exit status: 0 clean, 1 diagnostics found, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"aitf/internal/analysis"
)

func main() {
	args := os.Args[1:]
	// go vet's tool protocol: version probe, flag discovery, then one
	// invocation per compilation unit with a JSON config file.
	if len(args) > 0 {
		switch {
		case args[0] == "-V=full" || args[0] == "-V":
			fmt.Println("aitf-vet version 1.0")
			return
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(vetToolUnit(args[0]))
		}
	}
	os.Exit(standalone(args))
}

func standalone(args []string) int {
	fs := flag.NewFlagSet("aitf-vet", flag.ExitOnError)
	var (
		analyzers = fs.String("analyzers", "", "comma-separated analyzer subset (default: all of atomicfield,determinism,metricname,poolsafety)")
		noalloc   = fs.Bool("noalloc", false, "run the allocation gate instead: compile aitf:noalloc functions with -gcflags=-m and fail on heap escapes")
		listOnly  = fs.Bool("list", false, "list analyzers and exit")
	)
	fs.Parse(args)

	if *listOnly {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", "noalloc", "(-noalloc) aitf:noalloc functions must compile with zero heap escapes")
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return opErr(err)
	}
	mod, err := analysis.LoadModule(cwd, patterns...)
	if err != nil {
		return opErr(err)
	}

	var diags []analysis.Diagnostic
	if *noalloc {
		diags, err = mod.NoallocCheck()
		if err != nil {
			return opErr(err)
		}
	} else {
		suite := analysis.All()
		if *analyzers != "" {
			suite = suite[:0]
			for _, name := range strings.Split(*analyzers, ",") {
				a := analysis.ByName(strings.TrimSpace(name))
				if a == nil {
					return opErr(fmt.Errorf("unknown analyzer %q", name))
				}
				suite = append(suite, a)
			}
		}
		diags, err = mod.Run(suite)
		if err != nil {
			return opErr(err)
		}
	}
	return report(diags)
}

func report(diags []analysis.Diagnostic) int {
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	fmt.Fprintf(os.Stderr, "aitf-vet: %d finding(s)\n", len(diags))
	return 1
}

func opErr(err error) int {
	fmt.Fprintln(os.Stderr, "aitf-vet:", err)
	return 2
}

// vetConfig is the subset of cmd/go's vet JSON config aitf-vet needs.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetToolUnit analyzes one go vet compilation unit. Facts are not
// exchanged through vetx files (annotations are re-read from source),
// so dependency units are satisfied with an empty marker and the
// cross-package metricname duplicate check only sees this unit's
// dependency closure; the standalone CI gate covers the whole module.
func vetToolUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return opErr(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return opErr(fmt.Errorf("parsing %s: %w", cfgPath, err))
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("aitf-vet\n"), 0o666); err != nil {
			return opErr(err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// Test variants ("pkg_test", "pkg [pkg.test]", "pkg.test") are not
	// go list-able module packages; the suite analyzes non-test sources
	// only, in vettool mode just like in standalone mode.
	if strings.HasSuffix(cfg.ImportPath, "_test") ||
		strings.HasSuffix(cfg.ImportPath, ".test") ||
		strings.Contains(cfg.ImportPath, " [") {
		return 0
	}
	dir := cfg.Dir
	if dir == "" && len(cfg.GoFiles) > 0 {
		dir = filepath.Dir(cfg.GoFiles[0])
	}
	mod, err := analysis.LoadModule(dir, cfg.ImportPath)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		return opErr(err)
	}
	diags, err := mod.Run(analysis.All(), cfg.ImportPath)
	if err != nil {
		return opErr(err)
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	return 1
}
