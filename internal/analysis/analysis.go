// Package analysis is the repo's compile-time invariant checker: a
// small, dependency-free re-implementation of the golang.org/x/tools
// go/analysis shape (Analyzer, Pass, diagnostics, testdata fixtures)
// built on the standard library's go/ast + go/types, driven by
// cmd/aitf-vet.
//
// The suite proves conventions the compiler cannot:
//
//   - atomicfield: struct fields annotated `// aitf:atomic` may only
//     be touched through sync/atomic (the data-race class PR 6 fixed
//     by hand in core.Gateway.Stats).
//   - determinism: sim-driven packages must be deterministic from
//     their seed — no wall clock, no global math/rand source, no
//     ambient environment reads, no map iteration feeding output or
//     event ordering.
//   - metricname: every obs instrument registration uses a constant
//     `aitf_[a-z0-9_]+` name, registered from exactly one call site.
//   - poolsafety: pooled packets (packet.NewData/NewControl/Get)
//     must not escape into struct fields or globals outside
//     annotated owner types, and must not be Released after escaping.
//
// Annotation grammar (one marker per comment line, on the annotated
// declaration's doc/trailing comment, or — for call-site escapes —
// on the flagged line or the line directly above it):
//
//	// aitf:atomic                  (struct field)
//	// aitf:noalloc                 (function: zero heap allocations)
//	// aitf:packetowner             (struct type: may own pooled packets)
//	// aitf:wallclock <why>         (call site: wall clock/rand/env OK here)
//	// aitf:mapiter <why>           (range site: map order provably harmless)
//
// wallclock and mapiter REQUIRE a non-empty justification string; an
// annotation without one is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// A Diagnostic is one finding, positioned in the module's FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// An Analyzer is one named check run over every package in a load.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one package. Fset/Info are shared
// across the whole module load, so types.Object identities are stable
// across packages (a field annotated in package A is the same object
// when accessed from package B).
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Pkg      *Package
	Fset     *token.FileSet
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Note is one `aitf:<kind> <arg>` marker extracted from a comment.
type Note struct {
	Kind string
	Arg  string
	Pos  token.Pos
}

var noteRe = regexp.MustCompile(`^aitf:([a-z]+)\b[ \t]*(.*)$`)

// parseNotes extracts aitf: markers from a comment group. A marker
// must start its comment ("// aitf:kind ..."): mentioning the grammar
// mid-sentence in prose does not annotate anything.
func parseNotes(cg *ast.CommentGroup) []Note {
	if cg == nil {
		return nil
	}
	var out []Note
	for _, c := range cg.List {
		text := c.Text
		switch {
		case strings.HasPrefix(text, "//"):
			text = text[2:]
		case strings.HasPrefix(text, "/*"):
			text = strings.TrimSuffix(text[2:], "*/")
		}
		text = strings.TrimSpace(text)
		if m := noteRe.FindStringSubmatch(text); m != nil {
			out = append(out, Note{Kind: m[1], Arg: strings.TrimSpace(m[2]), Pos: c.Pos()})
		}
	}
	return out
}

// hasNote reports whether the comment group carries an aitf:<kind>
// marker.
func hasNote(cg *ast.CommentGroup, kind string) bool {
	for _, n := range parseNotes(cg) {
		if n.Kind == kind {
			return true
		}
	}
	return false
}

// NoteAt looks for an aitf:<kind> marker covering the source line of
// pos: either a trailing comment on the same line or a comment whose
// last line is directly above it. It returns the justification text
// and whether the marker exists.
func (m *Module) NoteAt(pos token.Pos, kind string) (arg string, ok bool) {
	line := m.Fset.Position(pos).Line
	file := m.Fset.File(pos)
	if file == nil {
		return "", false
	}
	notes := m.lineNotes[file.Name()]
	for _, want := range []int{line, line - 1} {
		for _, n := range notes[want] {
			if n.Kind == kind {
				return n.Arg, true
			}
		}
	}
	return "", false
}

// NoallocFunc is one function annotated `// aitf:noalloc`: its body
// must compile with zero heap-escape diagnostics (checked by the
// cmd/aitf-vet -noalloc gate, which is a build-and-grep pass rather
// than a type-graph analyzer).
type NoallocFunc struct {
	PkgPath string
	Name    string // func or method name, receiver-qualified
	File    string
	Start   int // first line of the declaration
	End     int // last line of the body
}

// collectFacts scans one freshly type-checked package for module-wide
// annotation facts. It runs at load time, in dependency order, so by
// the time an importing package is analyzed every annotated object of
// its dependencies is known.
func (m *Module) collectFacts(pkg *Package) {
	for _, f := range pkg.Files {
		fname := m.Fset.Position(f.Pos()).Filename
		// Line-indexed escape-hatch notes (wallclock, mapiter, ...).
		for _, cg := range f.Comments {
			for _, n := range parseNotes(cg) {
				ln := m.Fset.Position(n.Pos).Line
				if m.lineNotes[fname] == nil {
					m.lineNotes[fname] = map[int][]Note{}
				}
				m.lineNotes[fname][ln] = append(m.lineNotes[fname][ln], n)
			}
		}

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if !hasNote(field.Doc, "atomic") && !hasNote(field.Comment, "atomic") {
						continue
					}
					for _, name := range field.Names {
						if v, ok := m.Info.Defs[name].(*types.Var); ok {
							m.AtomicFields[v] = true
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if hasNote(n.Doc, "packetowner") || hasNote(ts.Doc, "packetowner") || hasNote(ts.Comment, "packetowner") {
						if tn, ok := m.Info.Defs[ts.Name].(*types.TypeName); ok {
							m.PacketOwners[tn] = true
						}
					}
				}
			case *ast.FuncDecl:
				if hasNote(n.Doc, "noalloc") && n.Body != nil {
					name := n.Name.Name
					if n.Recv != nil && len(n.Recv.List) > 0 {
						name = recvString(n.Recv.List[0].Type) + "." + name
					}
					m.NoallocFuncs = append(m.NoallocFuncs, NoallocFunc{
						PkgPath: pkg.Path,
						Name:    name,
						File:    fname,
						Start:   m.Fset.Position(n.Pos()).Line,
						End:     m.Fset.Position(n.End()).Line,
					})
				}
			}
			return true
		})
	}
}

func recvString(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvString(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvString(t.X)
	case *ast.IndexListExpr:
		return recvString(t.X)
	}
	return "?"
}

// Run applies each analyzer to each named package (all loaded
// packages when none are named) and returns position-sorted
// diagnostics. Packages run in dependency order and analyzers run in
// the given order, so cross-package state (e.g. metricname's
// duplicate registry) is deterministic.
func (m *Module) Run(analyzers []*Analyzer, paths ...string) ([]Diagnostic, error) {
	want := map[string]bool{}
	for _, p := range paths {
		want[p] = true
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range m.Pkgs {
			if len(want) > 0 && !want[pkg.Path] {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Module:   m,
				Pkg:      pkg,
				Fset:     m.Fset,
				Info:     m.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// Shared returns analyzer-private cross-package state, created on
// first use. Passes run sequentially so no locking is needed.
func (m *Module) Shared(key string, mk func() any) any {
	if v, ok := m.shared[key]; ok {
		return v
	}
	v := mk()
	m.shared[key] = v
	return v
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isPkg reports whether an import path denotes the repo package with
// base name `base` — either the real module path (aitf/internal/obs)
// or a testdata fixture standing in for it (obs, fixtures/obs).
func isPkg(path, base string) bool {
	return pathBase(path) == base
}
