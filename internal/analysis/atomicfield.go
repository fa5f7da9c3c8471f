package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField flags every access to a struct field annotated
// `// aitf:atomic` that does not go through sync/atomic.
//
// Two field shapes satisfy the contract:
//
//   - a sync/atomic typed field (atomic.Uint64, atomic.Pointer[T],
//     ...): every access is a method call, inherently atomic;
//   - a plain integer field (or a struct-of-counters field such as
//     border.Engine.stats) whose every selector access is
//     address-taken directly into a sync/atomic call:
//     atomic.AddUint64(&e.stats.FilterDrops, 1).
//
// Anything else — plain reads, plain writes, ++/--, compound
// assignment, taking the address for a non-atomic callee — is the
// race class PR 6 fixed by hand and is reported.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "aitf:atomic struct fields may only be accessed through sync/atomic",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.Info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			field, ok := selection.Obj().(*types.Var)
			if !ok || !pass.Module.AtomicFields[field] {
				return true
			}
			if ok, why := atomicUseOK(pass, stack, sel, field); !ok {
				pass.Reportf(sel.Sel.Pos(),
					"field %s.%s is annotated aitf:atomic and must be accessed through sync/atomic (%s)",
					fieldOwner(field), field.Name(), why)
			}
			return true
		})
	}
	return nil
}

// fieldOwner names the struct type a field belongs to, best-effort.
func fieldOwner(v *types.Var) string {
	if v.Pkg() == nil {
		return "?"
	}
	// Search the declaring package scope for the named type whose
	// underlying struct contains this exact field object.
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return v.Pkg().Name()
}

// atomicUseOK decides whether one selector access of an annotated
// field is a legal atomic use. stack is the ancestor chain ending at
// sel.
func atomicUseOK(pass *Pass, stack []ast.Node, sel *ast.SelectorExpr, field *types.Var) (bool, string) {
	// Typed sync/atomic fields (atomic.Uint64, atomic.Pointer[T], ...)
	// are only usable through their methods; any access is fine.
	if isAtomicType(field.Type()) {
		return true, ""
	}

	// Climb past further selectors/indexing on top of this access:
	// for `g.stats.FilterDrops`, the annotated access may be the
	// inner `g.stats` with the counter selector above it. Track the
	// outermost *field* selection reached through the chain.
	outerFieldType := field.Type()
	i := len(stack) - 2 // parent of sel
climb:
	for i >= 0 {
		switch p := stack[i].(type) {
		case *ast.SelectorExpr:
			// Only keep climbing if the chain continues through X.
			if !containsPos(p.X, sel.Pos()) {
				break climb
			}
			if s, ok := pass.Info.Selections[p]; ok && s.Kind() == types.FieldVal {
				outerFieldType = s.Obj().Type()
			} else {
				// Method or qualified selection ends the value chain:
				// a method call on an atomic-typed subfield is fine.
				break climb
			}
		case *ast.IndexExpr:
			if !containsPos(p.X, sel.Pos()) {
				break climb
			}
		case *ast.ParenExpr:
			// keep climbing
		default:
			break climb
		}
		i--
	}
	// The chain resolved to an atomic-typed (sub)field: its methods
	// are the only way to touch it, so any use is atomic.
	if isAtomicType(outerFieldType) {
		return true, ""
	}
	if i < 0 {
		return false, "plain access"
	}

	// Otherwise the chain must be address-taken...
	unary, ok := stack[i].(*ast.UnaryExpr)
	if !ok || unary.Op != token.AND {
		return false, "plain access"
	}
	// ...directly as an argument of a sync/atomic call.
	if i == 0 {
		return false, "address escapes sync/atomic"
	}
	call, ok := stack[i-1].(*ast.CallExpr)
	if !ok {
		return false, "address escapes sync/atomic"
	}
	for _, arg := range call.Args {
		if arg == stack[i] {
			if callee := typeutilCallee(pass.Info, call); callee != nil &&
				callee.Pkg() != nil && callee.Pkg().Path() == "sync/atomic" {
				return true, ""
			}
			return false, "address passed to a non-atomic callee"
		}
	}
	return false, "address escapes sync/atomic"
}

// isAtomicType reports whether t is a named type from sync/atomic,
// unwrapping pointers, slices and arrays: a `[]atomic.Pointer[T]`
// directory or a `[64]atomic.Uint64` bucket array is a container of
// atomics — the container header is immutable after construction and
// every element access goes through atomic methods.
func isAtomicType(t types.Type) bool {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok {
				return false
			}
			obj := named.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
		}
	}
}

// typeutilCallee resolves the static callee of a call, or nil.
func typeutilCallee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

func containsPos(n ast.Node, pos token.Pos) bool {
	return n != nil && n.Pos() <= pos && pos < n.End()
}
