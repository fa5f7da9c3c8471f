package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"aitf/internal/analysis"
)

// surfaceAllow lists the exports under internal/ and in the root
// package that may stay although no program references (or, for a
// struct field, writes) them yet, each with its reason. An entry names
// a program-bound oracle and the ROADMAP item whose program will call
// it, a cross-package fixture that another package's tests cannot reach
// through the program API, or a field a golden output renders. A stale
// entry (the export is gone, or a program now uses it) fails the check
// too.
var surfaceAllow = map[string]string{
	"aitf/internal/contract.EffectiveBandwidth": "program-bound oracle: ROADMAP item 12 derives experiment E2's expression from it",
	"aitf/internal/detect.Engine.Observe":       "program-bound oracle: ROADMAP item 15's batch entry calls it; the tests check ObserveBatch against it",
	"aitf/internal/cluster.Cluster.Owner":       "cross-package fixture: wire's failover test kills the replica that owns the attack flow, and replica ownership is internal to the cluster",
	"aitf/internal/filter.Stats.Evicted":        "reads 0 since the filter bank only rejects when full; the scenario fingerprint renders %+v of filter.Stats, so removing it would move every golden row",
}

// TestExportedSurfaceIsUsed fails on every exported func, method, var,
// const, type or struct field of the root package or of a non-main
// package under internal/ that no non-test package uses. Nothing
// outside the module can import an internal/ package, and the root
// package's module path "aitf" has no dot, so no other module can
// require it without a replace directive: such an export is dead.
// Delete it, unexport it, or move it into the package's export_test.go.
func TestExportedSurfaceIsUsed(t *testing.T) {
	mod, err := analysis.LoadModule(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, hit := range unusedExports(mod, surfaceAllow) {
		t.Error(hit)
	}
}

// TestExportedSurfaceFixture runs the check over a fixture whose
// internal package has four exported funcs and types (one a program
// calls, one nothing calls, one that satisfies an interface the
// program uses, one allowlisted) and a struct with six fields (one
// written, one never written, one written only by copying the unwritten
// one, one JSON-tagged, one atomic counter written through its method,
// one allowlisted). Exactly the unused func and the two unwritten
// fields are reported.
func TestExportedSurfaceFixture(t *testing.T) {
	mod, err := analysis.LoadDir("testdata/src", "surface/cmd/app")
	if err != nil {
		t.Fatal(err)
	}
	got := unusedExports(mod, map[string]string{
		"surface/internal/lib.Oracle":         "fixture allowlist entry",
		"surface/internal/lib.Config.Allowed": "fixture allowlist entry",
	})
	want := []string{"surface/internal/lib.Config.Copied ", "surface/internal/lib.Config.Unwritten ", "surface/internal/lib.Unused "}
	checkHits(t, got, want)

	// Without their entries the allowlisted export and field are hits;
	// an entry for an export that does not exist is reported as stale.
	got = unusedExports(mod, map[string]string{"surface/internal/lib.Gone": "stale"})
	want = []string{"surface/internal/lib.Config.Allowed ", "surface/internal/lib.Config.Copied ", "surface/internal/lib.Config.Unwritten ",
		"surface/internal/lib.Gone", "surface/internal/lib.Oracle ", "surface/internal/lib.Unused "}
	checkHits(t, got, want)
}

func checkHits(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("hits = %q, want %d", got, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w) {
			t.Errorf("hit %d = %q, want prefix %q", i, got[i], w)
		}
	}
}

// unusedExports returns one line per exported object of a checked
// package that is neither referenced by a loaded (non-test) file, nor a
// method satisfying an interface in use, nor allowlisted; one line per
// exported field of a checked package's exported struct type that no
// loaded file writes (see writtenFields) and that is not allowlisted;
// and one line per allowlist entry that names no such object. Lines are
// sorted.
//
// A checked package is the module's root package (a dotless import
// path of one element) or sits under an internal/ directory; it is not
// a main package, nor a test-support package (its name ends in "test").
// The root package's Ev* constants are exempt: they are the event
// vocabulary programs match log records against, kept whole. A
// reference from inside a function's own body does not count for that
// function. Generic instantiations count for their origin. Methods
// declared on interface types are not checked, nor are embedded fields,
// and a field is reported once, under its declaring package, however
// many aliases name its type.
func unusedExports(mod *analysis.Module, allow map[string]string) []string {
	type decl struct{ pos, end token.Pos }
	var (
		exports []types.Object
		keys    = map[types.Object]string{}
		own     = map[types.Object]decl{}
		named   []*types.Named
		fields  []*types.Var
	)
	for _, p := range mod.Pkgs {
		root := !strings.ContainsAny(p.Path, "/.")
		if !root && !strings.Contains("/"+p.Path+"/", "/internal/") || p.Name == "main" || strings.HasSuffix(p.Name, "test") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if _, ok := obj.(*types.Const); ok && root && strings.HasPrefix(name, "Ev") {
				continue
			}
			exports = append(exports, obj)
			keys[obj] = p.Path + "." + name
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) {
				continue
			}
			named = append(named, n)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					exports = append(exports, m)
					keys[m] = p.Path + "." + name + "." + m.Name()
				}
			}
			if st, ok := n.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if !f.Exported() || f.Embedded() {
						continue
					}
					fields = append(fields, f)
					exports = append(exports, f)
					keys[f] = p.Path + "." + name + "." + f.Name()
				}
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					own[mod.Info.Defs[fd.Name]] = decl{fd.Pos(), fd.End()}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range mod.Info.Uses {
		obj = origin(obj)
		if d, ok := own[obj]; ok && id.Pos() >= d.pos && id.Pos() < d.end {
			continue
		}
		used[obj] = true
	}

	// A method that satisfies an interface the code uses is called
	// through it: mark it used. The interfaces are those declared in a
	// loaded package or a package one imports (fmt.Stringer,
	// http.Handler, types.Importer), error, and every interface type an
	// expression of the module has.
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	addScope := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
	}
	for _, p := range mod.Pkgs {
		addScope(p.Types)
		for _, imp := range p.Types.Imports() {
			addScope(imp)
		}
	}
	for _, tv := range mod.Info.Types {
		if tv.Type != nil {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
	}
	for it := range ifaces {
		if it.NumMethods() == 0 || !it.IsMethodSet() {
			continue
		}
		for _, n := range named {
			if n.TypeParams().Len() > 0 {
				continue
			}
			if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if m, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), it.Method(i).Name()); m != nil {
					used[m] = true
				}
			}
		}
	}

	// A field is in use when it is written.
	written := writtenFields(mod)
	for _, f := range fields {
		used[f] = written[f]
	}

	var hits []string
	seen := map[string]bool{}
	for _, obj := range exports {
		key := keys[obj]
		seen[key] = true
		_, allowed := allow[key]
		what := "exported, but no non-test package references it"
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			what = "exported field, but no non-test package writes it"
		}
		switch {
		case used[obj] && allowed:
			hits = append(hits, fmt.Sprintf("%s (%s): allowlisted but used by a program; drop its entry", key, mod.Fset.Position(obj.Pos())))
		case !used[obj] && !allowed:
			hits = append(hits, fmt.Sprintf("%s (%s): %s", key, mod.Fset.Position(obj.Pos()), what))
		}
	}
	for key := range allow {
		if !seen[key] {
			hits = append(hits, key+": allowlisted, but no such export")
		}
	}
	sort.Strings(hits)
	return hits
}

// writtenFields returns the struct fields, by declaration, that a
// loaded (non-test) file writes. A field is written when the code
// assigns or increments it, names it in a keyed or positional composite
// literal, takes its address, or calls a method on it (an atomic
// counter's Add); a field with a json tag is written by its decoder.
// Every field on the path to such a write counts too: x.F.G[i] = v
// writes G and F. A write whose value is only a read of another field
// of the module (x.F = y.G) counts only once that field is written,
// and a field copied into itself never counts for itself.
func writtenFields(mod *analysis.Module) map[*types.Var]bool {
	inModule := map[*types.Package]bool{}
	for _, p := range mod.Pkgs {
		inModule[p.Types] = true
	}
	field := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := mod.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return origin(s.Obj()).(*types.Var)
		}
		return nil
	}

	written := map[*types.Var]bool{}
	copies := map[*types.Var][]*types.Var{} // source field -> fields written by copying it
	write := func(f *types.Var, val ast.Expr) {
		if src := field(val); src != nil && inModule[src.Pkg()] {
			if src != f {
				copies[src] = append(copies[src], f)
			}
			return
		}
		written[f] = true
	}
	// lvalue records a write of val into e and of every field on e's
	// selector path.
	lvalue := func(e, val ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e, val = x.X, nil
			case *ast.StarExpr:
				e, val = x.X, nil
			case *ast.SelectorExpr:
				f := field(x)
				if f == nil {
					return
				}
				write(f, val)
				e, val = x.X, nil
			default:
				return
			}
		}
	}
	for _, p := range mod.Pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					if n.Tag == nil {
						break
					}
					lit, _ := strconv.Unquote(n.Tag.Value)
					if tag, ok := reflect.StructTag(lit).Lookup("json"); ok && tag != "-" {
						for _, name := range n.Names {
							if f, ok := mod.Info.Defs[name].(*types.Var); ok {
								written[f] = true
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var val ast.Expr
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							val = n.Rhs[i]
						}
						lvalue(lhs, val)
					}
				case *ast.IncDecStmt:
					lvalue(n.X, nil)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						lvalue(n.Key, nil)
						if n.Value != nil {
							lvalue(n.Value, nil)
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lvalue(n.X, nil)
					}
				case *ast.SelectorExpr:
					if s := mod.Info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
						lvalue(n.X, nil)
					}
				case *ast.CompositeLit:
					st, ok := mod.Info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if f, ok := mod.Info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								write(f.Origin(), kv.Value)
							}
						} else {
							write(st.Field(i).Origin(), elt)
						}
					}
				}
				return true
			})
		}
	}

	// Propagate: a field written by copying a written field is written.
	var queue []*types.Var
	for f := range written {
		queue = append(queue, f)
	}
	for len(queue) > 0 {
		src := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, dst := range copies[src] {
			if !written[dst] {
				written[dst] = true
				queue = append(queue, dst)
			}
		}
	}
	return written
}

// origin resolves an instantiated generic function, method or field to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
