// The tick-model analyzer. Simulator components are strictly lock-free: the
// tick loop drives every component from a fixed order, and cross-component
// communication happens through synchronous callbacks inside the tick. So in
// the engine and every package below it, goroutines, channels, selects, and
// the sync/sync-atomic packages are banned outright. The one sanctioned
// exception is declared in the rule table and needs no waiver comment:
// AtomicAllow (config.CycleMeter, the shared cycle counter that never
// influences simulation behavior) lets that type's declaration and methods
// use sync/atomic.

package lint

import (
	"go/ast"
	"go/token"
	"strconv"
)

func tickModelAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "tickmodel",
		Doc:  "ban goroutines, channels, and sync primitives in engine-and-below packages",
		Run:  runTickModel,
	}
}

func runTickModel(pass *Pass) {
	if !pass.Rules.TickModel.Scope.Match(pass.Pkg.Rel) {
		return
	}
	bannedImports := make(map[string]bool, len(pass.Rules.TickModel.BannedImports))
	for _, b := range pass.Rules.TickModel.BannedImports {
		bannedImports[b] = true
	}
	allowedRanges, hasAllowedType := sanctionedRanges(pass)
	inSanctioned := func(pos token.Pos) bool {
		for _, r := range allowedRanges {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}

	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !bannedImports[path] {
				continue
			}
			// With a sanctioned type in this package the import itself is
			// fine; stray uses outside that type are still flagged below.
			if !hasAllowedType {
				pass.Report(imp.Pos(),
					"import of %q in tick-model code: the engine and everything below it is strictly single-goroutine (parallelism lives across engine instances, one level up)",
					path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !inSanctioned(n.Pos()) {
					pass.Report(n.Pos(), "go statement in tick-model code: the engine ticks all components from one goroutine")
				}
			case *ast.SelectStmt:
				if !inSanctioned(n.Pos()) {
					pass.Report(n.Pos(), "select statement in tick-model code: no channels inside the tick loop")
				}
			case *ast.SendStmt:
				if !inSanctioned(n.Pos()) {
					pass.Report(n.Pos(), "channel send in tick-model code: components communicate through synchronous callbacks inside the tick")
				}
			case *ast.ChanType:
				if !inSanctioned(n.Pos()) {
					pass.Report(n.Pos(), "channel type in tick-model code: components communicate through synchronous callbacks inside the tick")
				}
			case *ast.SelectorExpr:
				if path, ok := pass.Pkg.Qualifier(f, n); ok && bannedImports[path] && !inSanctioned(n.Pos()) {
					pass.Report(n.Pos(),
						"use of %s.%s in tick-model code: simulator components take no locks (the only sanctioned atomic is declared in the rule table)",
						path, n.Sel.Name)
				}
			}
			return true
		})
	}
}

// sanctionedRanges returns the source ranges of every AtomicAllow type
// declared in this package — the type's declaration group plus its methods —
// and whether this package has any such type at all.
func sanctionedRanges(pass *Pass) ([][2]token.Pos, bool) {
	var names []string
	for _, ref := range pass.Rules.TickModel.AtomicAllow {
		if ref.Package == pass.Pkg.Rel {
			names = append(names, ref.Type)
		}
	}
	if len(names) == 0 {
		return nil, false
	}
	isAllowed := func(name string) bool {
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}

	var ranges [][2]token.Pos
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if ok && isAllowed(ts.Name.Name) {
						ranges = append(ranges, [2]token.Pos{ts.Pos(), ts.End()})
					}
				}
			case *ast.FuncDecl:
				if decl.Recv != nil && isAllowed(receiverTypeName(decl)) {
					ranges = append(ranges, [2]token.Pos{decl.Pos(), decl.End()})
				}
			}
		}
	}
	return ranges, true
}

// receiverTypeName returns the bare receiver type name of a method ("" when
// it cannot be determined syntactically).
func receiverTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic instantiation if present.
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
