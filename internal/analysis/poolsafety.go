package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafety polices the packet pool's ownership discipline: a value
// produced by packet.NewData / packet.NewControl / packet.Get is
// pool-owned, and the pool's alias tests probe its use-after-release
// failure modes at runtime. This analyzer moves
// two rules to compile time:
//
//  1. a pooled packet may not be stored into a struct field or a
//     package-level variable unless the owning struct type is
//     annotated `// aitf:packetowner` (a type that manages the
//     packet's release, e.g. a queue or batch buffer);
//  2. a packet that has been stored away (even into an owner) may not
//     also be Released later in the same function — ownership was
//     handed off, releasing it again is a use-after-release in
//     waiting.
var PoolSafety = &Analyzer{
	Name: "poolsafety",
	Doc:  "pooled packets must not escape to non-owner fields/globals or be released after escaping",
	Run:  runPoolSafety,
}

var poolFuncs = map[string]bool{"NewData": true, "NewControl": true, "Get": true}

func runPoolSafety(pass *Pass) error {
	if isPkg(pass.Pkg.Path, "packet") {
		return nil // the pool's own package manages raw pool values
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPoolBody(pass, n.Body)
				}
				return false // checkPoolBody covers nested FuncLits
			case *ast.FuncLit:
				// Package-level var initializers with closures.
				checkPoolBody(pass, n.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// isPoolCall reports whether call produces a fresh pool-owned packet.
func isPoolCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !isPkg(fn.Pkg().Path(), "packet") || fn.Signature().Recv() != nil {
		return false
	}
	return poolFuncs[fn.Name()]
}

func checkPoolBody(pass *Pass, body *ast.BlockStmt) {
	// Pass 1: locals bound directly to pool calls.
	poolVars := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isPoolCall(pass, call) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if v, ok := objOf(pass, id).(*types.Var); ok {
					poolVars[v] = true
				}
			}
		}
		return true
	})

	// Pass 2: escapes (stores into fields/globals) and releases.
	escaped := map[*types.Var]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				carried := carriesPool(pass, poolVars, n.Rhs[i])
				if carried == nil {
					continue
				}
				checkPoolStore(pass, lhs, carried, escaped)
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Release" {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := objOf(pass, id).(*types.Var)
			if !ok || !poolVars[v] {
				return true
			}
			if storePos, ok := escaped[v]; ok && storePos < n.Pos() {
				pass.Reportf(n.Pos(),
					"%s.Release() after the packet was stored away at %s: ownership was handed off, releasing it here is a use-after-release",
					id.Name, pass.Fset.Position(storePos))
			}
		}
		return true
	})
}

// carriesPool reports the pool-owned value flowing through rhs as a
// stored operand (the ident itself, a fresh pool call, an append that
// includes one, a composite literal embedding one, or &x of one), or
// nil.
func carriesPool(pass *Pass, poolVars map[*types.Var]bool, rhs ast.Expr) ast.Expr {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		if v, ok := objOf(pass, e).(*types.Var); ok && poolVars[v] {
			return e
		}
	case *ast.CallExpr:
		if isPoolCall(pass, e) {
			return e
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, builtin := pass.Info.Uses[id].(*types.Builtin); builtin {
				for _, a := range e.Args {
					if c := carriesPool(pass, poolVars, a); c != nil {
						return c
					}
				}
			}
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c := carriesPool(pass, poolVars, el); c != nil {
				return c
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return carriesPool(pass, poolVars, e.X)
		}
	}
	return nil
}

// checkPoolStore validates one store of a pool-carried value into
// lhs, reporting non-owner field stores and any global store, and
// recording the escape of a tracked local.
func checkPoolStore(pass *Pass, lhs ast.Expr, carried ast.Expr, escaped map[*types.Var]token.Pos) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		selection, ok := pass.Info.Selections[l]
		if !ok || selection.Kind() != types.FieldVal {
			return
		}
		owner := namedRecv(selection.Recv())
		if owner == nil || !pass.Module.PacketOwners[owner] {
			name := "?"
			if owner != nil {
				name = owner.Name()
			}
			pass.Reportf(lhs.Pos(),
				"pooled packet stored into field %s of type %s, which is not annotated aitf:packetowner; pooled packets may only be retained by owner types that manage their release",
				l.Sel.Name, name)
		}
		markEscape(pass, carried, lhs.Pos(), escaped)
	case *ast.Ident:
		v, ok := objOf(pass, l).(*types.Var)
		if !ok {
			return
		}
		if v.Parent() == pass.Pkg.Types.Scope() {
			pass.Reportf(lhs.Pos(),
				"pooled packet stored into package-level variable %s; pooled packets may not be retained in globals", v.Name())
			markEscape(pass, carried, lhs.Pos(), escaped)
		}
	case *ast.IndexExpr:
		// Storing into an element of a field-held slice/map:
		// s.buf[i] = p. Validate against the field's owner.
		checkPoolStore(pass, l.X, carried, escaped)
	}
}

func markEscape(pass *Pass, carried ast.Expr, pos token.Pos, escaped map[*types.Var]token.Pos) {
	if id, ok := ast.Unparen(carried).(*ast.Ident); ok {
		if v, ok := objOf(pass, id).(*types.Var); ok {
			if _, seen := escaped[v]; !seen {
				escaped[v] = pos
			}
		}
	}
}

// namedRecv unwraps a selection receiver type to its *types.TypeName.
func namedRecv(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func objOf(pass *Pass, id *ast.Ident) types.Object {
	if o := pass.Info.Uses[id]; o != nil {
		return o
	}
	return pass.Info.Defs[id]
}
