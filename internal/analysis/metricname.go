package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
)

// MetricName locks the observability schema at compile time: every
// instrument registration on an obs.Registry (Counter, CounterFunc,
// GaugeFunc, Histogram) must pass a *constant* name matching
// `aitf_[a-z0-9_]+`, and each name must be registered from exactly
// one call site in the module — the compile-time form of the
// string-matching schema-lock tests in internal/wire and cmd/aitfd.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "obs instrument names must be constant aitf_[a-z0-9_]+ literals, registered once",
	Run:  runMetricName,
}

var metricNameRe = regexp.MustCompile(`^aitf_[a-z0-9_]+$`)

var registryMethods = map[string]bool{
	"Counter": true, "CounterFunc": true,
	"GaugeFunc": true,
	"Histogram": true,
}

// metricSites is the module-wide name -> first registration site map
// used for duplicate detection.
type metricSites map[string]token.Position

func runMetricName(pass *Pass) error {
	sites := pass.Module.Shared("metricname.sites", func() any { return metricSites{} }).(metricSites)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !registryMethods[sel.Sel.Name] {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			recv := fn.Signature().Recv()
			if recv == nil || !isRegistryType(recv.Type()) {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			arg := call.Args[0]
			tv, ok := pass.Info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"metric name passed to %s must be a constant string (dynamically built names break the schema lock)",
					sel.Sel.Name)
				return true
			}
			name := constant.StringVal(tv.Value)
			if !metricNameRe.MatchString(name) {
				pass.Reportf(arg.Pos(),
					"metric name %q does not match the schema pattern aitf_[a-z0-9_]+", name)
				return true
			}
			pos := pass.Fset.Position(arg.Pos())
			if first, dup := sites[name]; dup {
				pass.Reportf(arg.Pos(),
					"metric %q is already registered at %s; every schema name must have exactly one registration site",
					name, first)
			} else {
				sites[name] = pos
			}
			return true
		})
	}
	return nil
}

// isRegistryType reports whether t is (a pointer to) obs.Registry —
// the real aitf/internal/obs package or a fixture standing in for it.
func isRegistryType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && isPkg(obj.Pkg().Path(), "obs")
}
