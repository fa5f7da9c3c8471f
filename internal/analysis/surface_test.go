package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"aitf/internal/analysis"
)

// surfaceAllow lists the exports under internal/ that may stay
// although no program references them yet, each with its reason. An
// entry names a program-bound oracle and the ROADMAP item whose program
// will call it, or a cross-package fixture that another package's tests
// cannot reach through the program API. A stale entry (the export is
// gone, or a program now calls it) fails the check too.
var surfaceAllow = map[string]string{
	"aitf/internal/contract.EffectiveBandwidth": "program-bound oracle: ROADMAP item 12 derives experiment E2's expression from it",
	"aitf/internal/detect.Engine.Observe":       "program-bound oracle: ROADMAP item 15's batch entry calls it; the tests check ObserveBatch against it",
	"aitf/internal/cluster.Cluster.Owner":       "cross-package fixture: wire's failover test kills the replica that owns the attack flow, and replica ownership is internal to the cluster",
}

// TestExportedSurfaceIsUsed fails on every exported func, method, var,
// const or type of a non-main package under internal/ that no non-test
// package of the module references. Nothing outside the module can
// import an internal/ package, so such an export is dead: delete it,
// unexport it, or move it into the package's export_test.go.
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
// internal package has four exports: one a program calls, one nothing
// calls, one that satisfies an interface the program uses, and one
// allowlisted. Exactly the unused one is reported.
func TestExportedSurfaceFixture(t *testing.T) {
	mod, err := analysis.LoadDir("testdata/src", "surface/cmd/app")
	if err != nil {
		t.Fatal(err)
	}
	got := unusedExports(mod, map[string]string{"surface/internal/lib.Oracle": "fixture allowlist entry"})
	if len(got) != 1 || !strings.HasPrefix(got[0], "surface/internal/lib.Unused ") {
		t.Fatalf("hits = %q, want exactly surface/internal/lib.Unused", got)
	}

	// Without its entry the allowlisted export is a hit; an entry for
	// an export that does not exist is reported as stale.
	got = unusedExports(mod, map[string]string{"surface/internal/lib.Gone": "stale"})
	want := []string{"surface/internal/lib.Gone", "surface/internal/lib.Oracle ", "surface/internal/lib.Unused "}
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
// method satisfying an interface in use, nor allowlisted, plus one line
// per allowlist entry that names no such object. Lines are sorted.
//
// A checked package sits under an internal/ directory, is not a main
// package, and is not a test-support package (its name ends in
// "test"). A reference from inside a function's own body does not count
// for that function. Generic instantiations count for their origin.
// Methods declared on interface types are not checked.
func unusedExports(mod *analysis.Module, allow map[string]string) []string {
	type decl struct{ pos, end token.Pos }
	var (
		exports []types.Object
		keys    = map[types.Object]string{}
		own     = map[types.Object]decl{}
		named   []*types.Named
	)
	for _, p := range mod.Pkgs {
		if !strings.Contains("/"+p.Path+"/", "/internal/") || p.Name == "main" || strings.HasSuffix(p.Name, "test") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
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

	var hits []string
	seen := map[string]bool{}
	for _, obj := range exports {
		key := keys[obj]
		seen[key] = true
		_, allowed := allow[key]
		switch {
		case used[obj] && allowed:
			hits = append(hits, fmt.Sprintf("%s (%s): allowlisted but referenced by a program; drop its entry", key, mod.Fset.Position(obj.Pos())))
		case !used[obj] && !allowed:
			hits = append(hits, fmt.Sprintf("%s (%s): exported, but no non-test package references it", key, mod.Fset.Position(obj.Pos())))
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
