// The hotalloc analyzer generalizes the engine's two testing.AllocsPerRun
// spot checks into whole-call-graph coverage: every function reachable from
// the steady-state tick roots (Rules.HotAlloc.Roots — engine.(*GPU).step and
// the component Tick methods) is scanned for allocation sites. The per-cycle
// path must stay allocation free — a single make or interface boxing inside
// link.Tick shows up as GC pressure on every simulated cycle.
//
// Flagged site kinds:
//
//   - make(...) of any kind;
//   - append(...), unless it is the reuse idiom `x = append(x, ...)` where x
//     is NOT a variable freshly declared in the same function (appending to a
//     field, parameter, or captured slice reuses steady-state capacity, as
//     the hand-off boxes do; appending to a fresh local allocates every call);
//   - composite literals with slice or map type, and &T{...} (heap-escaping
//     by construction); plain struct VALUE literals are not flagged — they
//     stay on the stack unless something else moves them;
//   - function-literal creation (the closure header allocates);
//   - string <-> []byte/[]rune conversions;
//   - interface boxing: passing or returning a concrete value where an
//     interface (including any) is expected, except pointer-shaped values
//     (pointers, channels, maps, funcs, unsafe.Pointer, nil) which box
//     without allocating.
//
// Everything inside a panic(...) argument is exempt: a panicking cycle is by
// definition not steady state. Cold paths reachable from a root (e.g. the
// kernel-completion bookkeeping that runs once per launch) are waived at the
// site with //lint:allow hotalloc <reason>. Known limit: there is no escape
// analysis, so `&local` of a non-composite (such as taking the address of a
// stack context struct) is not flagged even though it may escape.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

func hotAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name:       "hotalloc",
		Doc:        "no allocation sites reachable from the steady-state tick roots",
		RunProgram: runHotAlloc,
	}
}

func runHotAlloc(pass *ProgramPass) {
	r := &pass.Rules.HotAlloc
	if len(r.Roots) == 0 {
		pass.Disable()
		return
	}
	var roots []*CGNode
	for _, ref := range r.Roots {
		n := pass.Graph.Lookup(ref)
		if n == nil {
			// A tick root is missing, so this is a sub-pattern lint over a
			// partial call graph: still check what is reachable, but leave
			// idle waivers alone (unreachability here proves nothing).
			pass.Disable()
			continue
		}
		roots = append(roots, n)
	}
	if len(roots) == 0 {
		return
	}
	reach := pass.Graph.Reachable(roots)
	for _, n := range pass.Graph.Nodes {
		if reach[n] && r.Scope.Match(n.Pkg.Rel) {
			checkAllocs(pass, n)
		}
	}
}

// span is a half-open position range used for the panic-argument exemption.
type span struct{ lo, hi token.Pos }

func checkAllocs(pass *ProgramPass, n *CGNode) {
	info := n.Pkg.Info
	where := n.String()

	// Prepass 1: positions inside panic(...) arguments are exempt.
	var panics []span
	// Prepass 2: append calls matching the capacity-reuse idiom.
	reuse := map[*ast.CallExpr]bool{}
	bodyInspect(n.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					for _, a := range s.Args {
						panics = append(panics, span{a.Pos(), a.End()})
					}
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || !isBuiltin(info, call.Fun, "append") {
				return true
			}
			if types.ExprString(s.Lhs[0]) != types.ExprString(call.Args[0]) {
				return true
			}
			if root, ok := rootIdent(ast.Unparen(s.Lhs[0])); ok {
				if v, ok := info.Uses[root].(*types.Var); ok {
					if v.Pos() >= n.Body.Pos() && v.Pos() <= n.Body.End() {
						return true // fresh local: allocates every call
					}
				}
			}
			reuse[call] = true
		}
		return true
	})
	exempt := func(pos token.Pos) bool {
		for _, s := range panics {
			if pos >= s.lo && pos < s.hi {
				return true
			}
		}
		return false
	}
	report := func(pos token.Pos, format string, args ...any) {
		if !exempt(pos) {
			pass.Report(pos, format, args...)
		}
	}

	bodyInspect(n.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.FuncLit:
			report(s.Pos(), "%s creates a closure on the steady-state tick path", where)
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if _, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
					report(s.Pos(), "%s heap-allocates a composite literal (&T{...}) on the tick path", where)
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[s]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(s.Pos(), "%s allocates a slice literal on the tick path", where)
				case *types.Map:
					report(s.Pos(), "%s allocates a map literal on the tick path", where)
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n, s, reuse, report)
		case *ast.ReturnStmt:
			checkReturnBoxing(n, s, report)
		}
		return true
	})
}

// checkCall flags allocating builtins, allocating conversions, and interface
// boxing at argument positions of one call.
func checkCall(pass *ProgramPass, n *CGNode, call *ast.CallExpr, reuse map[*ast.CallExpr]bool, report func(token.Pos, string, ...any)) {
	info := n.Pkg.Info
	where := n.String()

	// Conversions: T(x) where the operand crosses the string/byte-slice
	// boundary copies its payload.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && stringBytesConv(tv.Type, info.Types[call.Args[0]].Type) {
			report(call.Pos(), "%s converts between string and byte/rune slice on the tick path (copies)", where)
		}
		return
	}

	if isBuiltin(info, call.Fun, "make") {
		report(call.Pos(), "%s calls make on the steady-state tick path", where)
		return
	}
	if isBuiltin(info, call.Fun, "append") {
		if !reuse[call] {
			report(call.Pos(), "%s appends to a fresh slice on the tick path (not the x = append(x, ...) reuse idiom)", where)
		}
		return
	}

	// Interface boxing at argument positions.
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call.Ellipsis.IsValid())
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		report(arg.Pos(), "%s boxes a %s into %s at a call on the tick path", where, at.String(), pt.String())
	}
}

// checkReturnBoxing flags concrete values returned through interface results.
func checkReturnBoxing(n *CGNode, ret *ast.ReturnStmt, report func(token.Pos, string, ...any)) {
	sig := n.Sig()
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return // bare return or tuple-forwarding return: nothing to judge
	}
	info := n.Pkg.Info
	where := n.String()
	for i, res := range ret.Results {
		rt := sig.Results().At(i).Type()
		if !types.IsInterface(rt) {
			continue
		}
		at := info.Types[res].Type
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		report(res.Pos(), "%s boxes a %s into %s at a return on the tick path", where, at.String(), rt.String())
	}
}

// paramTypeAt resolves the effective parameter type for argument i, spreading
// the variadic tail (unless the call itself uses ...).
func paramTypeAt(sig *types.Signature, i int, ellipsis bool) types.Type {
	np := sig.Params().Len()
	if sig.Variadic() && !ellipsis && i >= np-1 {
		tail := sig.Params().At(np - 1).Type()
		if sl, ok := tail.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= np {
		return nil
	}
	return sig.Params().At(i).Type()
}

// pointerShaped reports whether values of t fit in a pointer word and so box
// into an interface without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

// stringBytesConv reports whether a conversion from `from` to `to` crosses
// the string / []byte / []rune boundary in either direction.
func stringBytesConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteish(from)) || (isByteish(to) && isStr(from))
}

// isBuiltin reports whether fun is a use of the named builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// rootIdent unwraps selectors, indexes, derefs, and parens to the leftmost
// identifier of an lvalue chain.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
