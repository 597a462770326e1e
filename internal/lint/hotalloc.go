package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc bans allocation inside //hyperplexvet:hotpath regions — the
// arena-discipline guard for the CSR peeler, the DistPeeler phase
// methods and the cover heap loops.  A hotpath mark on a function covers its
// whole body; a standalone mark above a statement covers that
// statement's subtree.  Inside a region the analyzer reports make and
// new calls, slice/map composite literals (and &T{...}), function
// literals, and append calls whose destination is not arena-owned
// storage (see PkgFacts.ArenaOwned: carve-call results, reslices of
// them, and self-appends).  Calls out of the region are not followed:
// the mark documents and polices the statements it covers.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no append/make/map/closure allocation inside //hyperplexvet:hotpath regions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	facts := pass.Facts()
	if len(facts.HotMarks) == 0 {
		return
	}
	for _, file := range pass.Pkg.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		lines := facts.HotMarks[filename]
		if len(lines) == 0 {
			continue
		}
		marked := func(n ast.Node) bool { return lines[pass.Fset.Position(n.Pos()).Line] }
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if marked(fd) {
				checkHotRegion(pass, facts, fd.Body)
				continue
			}
			// Statement-level marks inside an unmarked function.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				s, ok := n.(ast.Stmt)
				if !ok || !marked(s) {
					return true
				}
				checkHotRegion(pass, facts, s)
				return false // the whole subtree was just checked
			})
		}
	}
}

// checkHotRegion reports every allocation site in the region subtree.
func checkHotRegion(pass *Pass, facts *PkgFacts, region ast.Node) {
	ast.Inspect(region, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal allocates in a hotpath region")
			return false // its body runs elsewhere
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal allocates in a hotpath region")
					return false
				}
			}
		case *ast.CompositeLit:
			switch pass.Pkg.Info.Types[n].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "composite literal allocates in a hotpath region")
			}
		case *ast.CallExpr:
			switch {
			case isBuiltinCall(pass.Pkg, n, "make"):
				pass.Reportf(n.Pos(), "make allocates in a hotpath region; carve from the arena instead")
			case isBuiltinCall(pass.Pkg, n, "new"):
				pass.Reportf(n.Pos(), "new allocates in a hotpath region; carve from the arena instead")
			case isBuiltinCall(pass.Pkg, n, "append"):
				if len(n.Args) > 0 && !isArenaExpr(pass.Pkg, n.Args[0], nil, facts.ArenaOwned, nil) {
					pass.Reportf(n.Pos(), "append to non-arena slice may allocate in a hotpath region")
				}
			}
		}
		return true
	})
}
