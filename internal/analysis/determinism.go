package analysis

import (
	"go/ast"
	"go/types"
)

// DeterministicPkgs are the packages whose behavior must be a pure
// function of their seed: the scenario fuzzer, the E16/E17 chaos and
// failover gates, and byte-identical replay all depend on it. wire,
// obs and the cmd/ CLIs legitimately touch wall clocks and are not
// listed.
var DeterministicPkgs = []string{
	"core", "netsim", "sim", "scenario", "detect", "cluster",
	"attack", "topology", "alloc", "filter", "pushback", "traceback",
	"ctrl", "endhost",
}

// Determinism forbids ambient nondeterminism in sim-driven packages:
//
//   - wall clocks: time.Now, time.Since, time.Until, timers/tickers,
//     time.Sleep;
//   - the global math/rand source (rand.Intn, rand.Shuffle, ...; a
//     seeded *rand.Rand is fine, as are rand.New/NewSource);
//   - ambient process input: os.Getenv, os.LookupEnv, os.Environ,
//     os.Hostname, os.Getpid;
//   - map iteration feeding output or event ordering: a `range` over
//     a map whose body appends, sends, or schedules, without a
//     subsequent sort in the same function.
//
// Escape hatches (both REQUIRE a justification string):
//
//	t := time.Now() // aitf:wallclock profiling-only, excluded from fingerprints
//	for k := range m { ... } // aitf:mapiter folded through order-independent sum
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "sim-driven packages must be deterministic from their seed",
	Run:  runDeterminism,
}

var detForbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

var detAllowedRand = map[string]bool{
	// Constructors taking an explicit seed/source are the deterministic
	// way in; everything else package-level draws from the global
	// source.
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true,
	"NewChaCha8": true,
}

var detForbiddenOS = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
	"Hostname": true, "Getpid": true,
}

func isDeterministicPkg(path string) bool {
	for _, p := range DeterministicPkgs {
		if path == "aitf/internal/"+p || isPkg(path, p) {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) error {
	if !isDeterministicPkg(pass.Pkg.Path) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := pass.Info.Uses[n.Sel]
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if fn.Signature().Recv() != nil {
					return true // methods (e.g. (*rand.Rand).Intn) are fine
				}
				var what string
				switch fn.Pkg().Path() {
				case "time":
					if detForbiddenTime[fn.Name()] {
						what = "wall clock time." + fn.Name()
					}
				case "math/rand", "math/rand/v2":
					if !detAllowedRand[fn.Name()] {
						what = "global math/rand source rand." + fn.Name()
					}
				case "os":
					if detForbiddenOS[fn.Name()] {
						what = "ambient process input os." + fn.Name()
					}
				}
				if what == "" {
					return true
				}
				if reason, ok := pass.Module.NoteAt(n.Pos(), "wallclock"); ok {
					if reason == "" {
						pass.Reportf(n.Pos(), "aitf:wallclock annotation requires a justification string")
					}
					return true
				}
				pass.Reportf(n.Pos(),
					"%s in sim-deterministic package %s (seeded replay would diverge); justify with `// aitf:wallclock <why>` if legitimate",
					what, pass.Pkg.Name)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapOrder(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkMapOrder flags range-over-map loops inside body whose own body
// feeds ordered output (append / channel send / event scheduling)
// unless the function later sorts, or the loop carries an
// aitf:mapiter justification.
func checkMapOrder(pass *Pass, body *ast.BlockStmt) {
	var loops []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			if t := pass.Info.TypeOf(r.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					loops = append(loops, r)
				}
			}
		}
		return true
	})
	for _, r := range loops {
		feed := orderFeed(pass, r.Body)
		if feed == "" {
			continue
		}
		if reason, ok := pass.Module.NoteAt(r.Pos(), "mapiter"); ok {
			if reason == "" {
				pass.Reportf(r.Pos(), "aitf:mapiter annotation requires a justification string")
			}
			continue
		}
		if sortsAfter(pass, body, r) {
			continue
		}
		pass.Reportf(r.Pos(),
			"map iteration %s in sim-deterministic package %s without a later sort; sort the result or justify with `// aitf:mapiter <why>`",
			feed, pass.Pkg.Name)
	}
}

// orderFeed reports how a range body leaks iteration order into
// program output, or "".
func orderFeed(pass *Pass, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = "sends on a channel"
		case *ast.CallExpr:
			switch fn := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fn.Name == "append" {
					if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); isBuiltin {
						found = "appends to a slice"
					}
				}
			case *ast.SelectorExpr:
				switch fn.Sel.Name {
				case "Schedule", "ScheduleAt", "Push", "Enqueue", "Deliver", "Emit":
					found = "schedules/enqueues (" + fn.Sel.Name + ")"
				}
			}
		}
		return true
	})
	return found
}

// sortsAfter reports whether any sort/slices ordering call appears
// after the loop within the same function body (the collect-then-sort
// idiom).
func sortsAfter(pass *Pass, body *ast.BlockStmt, r *ast.RangeStmt) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < r.End() {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "sort", "slices":
					sorted = true
				}
			}
		}
		return true
	})
	return sorted
}
