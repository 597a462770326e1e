package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// This file is the facts registry: package-wide conventions computed
// once per package and shared by the flow-sensitive analyzers.  Facts
// capture what no single function shows — which functions reach a
// budget checkpoint through any call chain, which slices only ever
// hold arena-carved storage, which constants are wire frame types —
// so the analyzers stay syntax-local while still judging cross-file
// contracts.

// PkgFacts are the computed conventions of one package.
type PkgFacts struct {
	// Checkpointers are the package functions (including methods) whose
	// body reaches a run.Tick / failpoint.Inject / ctx.Err checkpoint,
	// directly or through same-package calls, including calls through
	// func-valued fields all of whose assigned values checkpoint.
	Checkpointers map[types.Object]bool
	// CheckpointFields are func-typed fields and variables every value
	// assigned to which (package-wide) is a checkpointer, so a call
	// through one always checkpoints (the charge-accumulator idiom:
	// p.checkpoint = p.checkpointBuild / p.checkpointPeel).
	CheckpointFields map[types.Object]bool
	// Trivial are loop-free accessor-grade functions doing a bounded
	// amount of work per call (transitively: they may call builtins,
	// bounded stdlib helpers and other trivial functions).  budgettick
	// lets bounded scan loops call them without losing the exemption.
	Trivial map[types.Object]bool
	// ArenaOwned are the slice-typed objects (locals and fields) whose
	// every binding in the package is arena-carved storage: a carve-call
	// result, a reslice of an arena-owned object, or a self-append.
	ArenaOwned map[types.Object]bool
	// FailpointSites maps registered failpoint site names to the
	// position of their Register call.
	FailpointSites map[string]token.Pos
	// WireConsts are the constants of the //hyperplexvet:wiretypes
	// block, in declaration order (empty when the package has none).
	WireConsts []types.Object
	// WireSend and WireRecv are the functions marked wiresend/wirerecv:
	// their first byte-typed parameter carries a wire frame type.
	WireSend, WireRecv map[types.Object]bool
	// HotMarks holds the target lines of //hyperplexvet:hotpath
	// directives, file → line → true; hotalloc resolves them against
	// function and statement start lines.
	HotMarks map[string]map[int]bool
	// FuncDecls maps each declared function object to its declaration.
	FuncDecls map[types.Object]*ast.FuncDecl
}

// Facts returns the facts registry of the pass's package, computing it
// on first use.
func (p *Pass) Facts() *PkgFacts {
	if p.Pkg.facts == nil {
		p.Pkg.facts = collectFacts(p.Fset, p.Pkg)
	}
	return p.Pkg.facts
}

// FactsFor returns the facts registry of any module-internal package
// the load touched — the pass's own, or an imported one — and nil for
// stdlib packages or when the pass has no program backref.
func (p *Pass) FactsFor(tp *types.Package) *PkgFacts {
	if tp == p.Pkg.Types {
		return p.Facts()
	}
	if p.Prog == nil {
		return nil
	}
	pkg := p.Prog.PackageFor(tp)
	if pkg == nil {
		return nil
	}
	if pkg.facts == nil {
		pkg.facts = collectFacts(p.Fset, pkg)
	}
	return pkg.facts
}

// CollectFacts computes the registry for every package of prog and
// returns it keyed by import path.  RunSuite does this implicitly;
// the explicit form exists for tests and tooling that inspect facts
// across a multi-package load.
func CollectFacts(prog *Program) map[string]*PkgFacts {
	out := make(map[string]*PkgFacts, len(prog.Pkgs))
	for _, pkg := range prog.Pkgs {
		if pkg.facts == nil {
			pkg.facts = collectFacts(prog.Fset, pkg)
		}
		out[pkg.Path] = pkg.facts
	}
	return out
}

func collectFacts(fset *token.FileSet, pkg *Package) *PkgFacts {
	f := &PkgFacts{
		Checkpointers:    make(map[types.Object]bool),
		CheckpointFields: make(map[types.Object]bool),
		Trivial:          make(map[types.Object]bool),
		ArenaOwned:       make(map[types.Object]bool),
		FailpointSites:   make(map[string]token.Pos),
		WireSend:         make(map[types.Object]bool),
		WireRecv:         make(map[types.Object]bool),
		HotMarks:         make(map[string]map[int]bool),
		FuncDecls:        make(map[types.Object]*ast.FuncDecl),
	}
	funcsOf(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
		if obj := pkg.Info.Defs[fd.Name]; obj != nil {
			f.FuncDecls[obj] = fd
		}
	})
	f.collectDirectives(fset, pkg)
	f.collectFailpointSites(pkg)
	f.collectTrivial(pkg)
	f.collectCheckpointers(pkg)
	f.collectArenaOwned(pkg)
	return f
}

// --- directive-backed facts ---

func (f *PkgFacts) collectDirectives(fset *token.FileSet, pkg *Package) {
	type mark struct {
		file string
		line int
	}
	marks := make(map[string][]mark) // verb → targets
	for _, d := range packageDirectives(fset, pkg) {
		marks[d.verb] = append(marks[d.verb], mark{d.file, d.targetLine})
	}
	has := func(verb, file string, line int) bool {
		for _, m := range marks[verb] {
			if m.file == file && m.line == line {
				return true
			}
		}
		return false
	}
	for _, m := range marks["hotpath"] {
		byLine := f.HotMarks[m.file]
		if byLine == nil {
			byLine = make(map[int]bool)
			f.HotMarks[m.file] = byLine
		}
		byLine[m.line] = true
	}

	for _, file := range pkg.Files {
		filename := fset.Position(file.Pos()).Filename
		lineOf := func(n ast.Node) int { return fset.Position(n.Pos()).Line }
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				obj := pkg.Info.Defs[decl.Name]
				if obj == nil {
					continue
				}
				if has("wiresend", filename, lineOf(decl)) {
					f.WireSend[obj] = true
				}
				if has("wirerecv", filename, lineOf(decl)) {
					f.WireRecv[obj] = true
				}
			case *ast.GenDecl:
				if decl.Tok == token.CONST && has("wiretypes", filename, lineOf(decl)) {
					for _, spec := range decl.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								f.WireConsts = append(f.WireConsts, obj)
							}
						}
					}
				}
			}
		}
	}
}

// --- failpoint sites ---

func (f *PkgFacts) collectFailpointSites(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
					continue
				}
				call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
				if !ok || !isPkgFunc(pkg, call, failpointPath, "Register") || len(call.Args) != 1 {
					continue
				}
				if tv := pkg.Info.Types[call.Args[0]]; tv.Value != nil && tv.Value.Kind() == constant.String {
					f.FailpointSites[constant.StringVal(tv.Value)] = call.Pos()
				}
			}
		}
	}
}

// --- callee resolution (shared helper) ---

// calleeOf resolves a call to the function or method object it
// invokes, or to the field/variable object for calls through func
// values; nil when the callee is a builtin, a conversion, or not
// resolvable.
func calleeOf(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[fun]
		if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
			return nil
		}
		if _, isType := obj.(*types.TypeName); isType {
			return nil
		}
		return obj
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[fun]; sel != nil {
			return sel.Obj()
		}
		return pkg.Info.Uses[fun.Sel] // package-qualified
	}
	return nil
}

// isCheckpointPrimitive reports whether the call is one of the root
// budget/cancellation checkpoints: run.Tick, failpoint.Inject, or
// ctx.Err()/ctx.Done() on a context.Context value.
func isCheckpointPrimitive(pkg *Package, call *ast.CallExpr) bool {
	if isPkgFunc(pkg, call, "internal/run", "Tick") || isPkgFunc(pkg, call, failpointPath, "Inject") {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	tv, ok := pkg.Info.Types[sel.X]
	return ok && isContextType(tv.Type)
}

// --- trivial functions ---

// collectTrivial finds accessor-grade functions: no loops, no selects,
// no channel operations, and no calls other than builtins, bounded
// stdlib helpers, or other trivial same-package functions.  Greatest
// fixpoint: start with every structurally simple function, drop those
// calling a dropped one.
func (f *PkgFacts) collectTrivial(pkg *Package) {
	calls := make(map[types.Object][]types.Object)
	for obj, fd := range f.FuncDecls {
		if fd.Body == nil {
			continue
		}
		simple := true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.GoStmt, *ast.SendStmt:
				simple = false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					simple = false
				}
			case *ast.CallExpr:
				if isConversion(pkg, n) {
					return true
				}
				if callee := calleeOf(pkg, n); callee != nil {
					switch cp := callee.Pkg(); {
					case cp == pkg.Types:
						calls[obj] = append(calls[obj], callee)
					case cp != nil && boundedStdlib[cp.Path()]:
						// Pure computation per call; stays trivial.
					default:
						simple = false
					}
				}
			}
			return simple
		})
		if simple {
			f.Trivial[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj := range f.Trivial {
			for _, callee := range calls[obj] {
				if !f.Trivial[callee] {
					delete(f.Trivial, obj)
					changed = true
					break
				}
			}
		}
	}
}

// isConversion reports whether the "call" is really a type conversion.
func isConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// --- checkpointers ---

// collectCheckpointers runs the least fixpoint over the package call
// graph: a function checkpoints if its body (function literals
// excluded — they run elsewhere) contains a checkpoint primitive, a
// call to a same-package checkpointer, or a call through a func-typed
// field every assigned value of which is a checkpointer.
func (f *PkgFacts) collectCheckpointers(pkg *Package) {
	fieldAssigns := collectFuncFieldAssigns(pkg)
	for changed := true; changed; {
		changed = false
		for obj, fd := range f.FuncDecls {
			if f.Checkpointers[obj] || fd.Body == nil {
				continue
			}
			hit := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || hit {
					return !hit
				}
				if isCheckpointPrimitive(pkg, call) {
					hit = true
					return false
				}
				if callee := calleeOf(pkg, call); callee != nil && callee.Pkg() == pkg.Types {
					if f.Checkpointers[callee] {
						hit = true
						return false
					}
					if vals, ok := fieldAssigns[callee]; ok && len(vals) > 0 {
						all := true
						for _, v := range vals {
							if v == nil || !f.Checkpointers[v] {
								all = false
								break
							}
						}
						if all {
							hit = true
							return false
						}
					}
				}
				return true
			})
			if hit {
				f.Checkpointers[obj] = true
				changed = true
			}
		}
	}
	for field, vals := range fieldAssigns {
		if len(vals) == 0 {
			continue
		}
		all := true
		for _, v := range vals {
			if v == nil || !f.Checkpointers[v] {
				all = false
				break
			}
		}
		if all {
			f.CheckpointFields[field] = true
		}
	}
}

// collectFuncFieldAssigns maps each func-typed field or variable to
// every value assigned to it anywhere in the package (nil entries for
// values that are not resolvable to a declared function).
func collectFuncFieldAssigns(pkg *Package) map[types.Object][]types.Object {
	out := make(map[types.Object][]types.Object)
	record := func(lhs, rhs ast.Expr) {
		var target types.Object
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel := pkg.Info.Selections[lhs]; sel != nil {
				target = sel.Obj()
			}
		case *ast.Ident:
			target = pkg.Info.Defs[lhs]
			if target == nil {
				target = pkg.Info.Uses[lhs]
			}
		}
		if target == nil {
			return
		}
		if _, ok := target.Type().Underlying().(*types.Signature); !ok {
			return
		}
		var val types.Object
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.Ident:
			val = pkg.Info.Uses[rhs]
		case *ast.SelectorExpr:
			if sel := pkg.Info.Selections[rhs]; sel != nil {
				val = sel.Obj() // method value
			} else {
				val = pkg.Info.Uses[rhs.Sel]
			}
		}
		if _, ok := val.(*types.Func); !ok {
			val = nil
		}
		out[target] = append(out[target], val)
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i := range as.Lhs {
					record(as.Lhs[i], as.Rhs[i])
				}
			}
			return true
		})
	}
	return out
}

// --- arena-owned slices ---

// collectArenaOwned finds the objects whose storage is always carved
// from a kernel arena.  A carver is a local closure returning a
// full-slice expression (s[:n:n]); a binding is arena if it is a
// carver call, a reslice or element of an arena object, an append to
// one, or a self-reference.  Greatest fixpoint over all bindings, so
// mutually-recycled buffers (a work list reset via a local alias) stay
// owned as long as no binding introduces foreign storage.
func (f *PkgFacts) collectArenaOwned(pkg *Package) {
	carvers := collectCarvers(pkg)
	sources := make(map[types.Object][]ast.Expr)
	record := func(lhs, rhs ast.Expr) {
		obj := baseObject(pkg, lhs)
		if obj == nil {
			return
		}
		if !isSliceObj(obj) {
			return
		}
		sources[obj] = append(sources[obj], rhs)
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						record(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						record(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
	owned := make(map[types.Object]bool, len(sources))
	for obj := range sources {
		owned[obj] = true
	}
	for changed := true; changed; {
		changed = false
		for obj := range owned {
			ok, anchored := true, false
			for _, src := range sources[obj] {
				if !isArenaExpr(pkg, src, obj, owned, carvers) {
					ok = false
					break
				}
				// A self-reference (self-append, self-reslice) recycles
				// storage but never establishes it; at least one binding
				// must anchor the object to the arena for real, or a
				// plain growing result buffer would count as owned.
				if baseObject(pkg, rootExpr(src)) != obj {
					anchored = true
				}
			}
			if !ok || !anchored {
				delete(owned, obj)
				changed = true
			}
		}
	}
	f.ArenaOwned = owned
}

// rootExpr unwraps reslices, element indexing and appends down to the
// expression naming the storage's origin.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				e = x.Args[0]
				continue
			}
			return e
		default:
			return e
		}
	}
}

// collectCarvers finds locals bound to a closure whose body returns a
// full-slice expression — the arena-carve idiom.
func collectCarvers(pkg *Package) map[types.Object]bool {
	out := make(map[types.Object]bool)
	consider := func(name ast.Expr, val ast.Expr) {
		id, ok := ast.Unparen(name).(*ast.Ident)
		if !ok {
			return
		}
		lit, ok := ast.Unparen(val).(*ast.FuncLit)
		if !ok {
			return
		}
		carves := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if se, ok := n.(*ast.SliceExpr); ok && se.Slice3 {
				carves = true
			}
			return !carves
		})
		if !carves {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj != nil {
			out[obj] = true
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						consider(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						consider(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
	return out
}

// baseObject resolves an lvalue or value expression to the object
// owning its storage: the variable or field itself, through index and
// slice expressions (an element of x is storage of x).
func baseObject(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Defs[e]; obj != nil {
			return obj
		}
		return pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[e]; sel != nil {
			return sel.Obj()
		}
		return pkg.Info.Uses[e.Sel]
	case *ast.IndexExpr:
		return baseObject(pkg, e.X)
	case *ast.SliceExpr:
		return baseObject(pkg, e.X)
	}
	return nil
}

func isSliceObj(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	// [][]T element assignments resolve to the same field object, so a
	// nested slice counts the same as a flat one.
	_, isSlice := v.Type().Underlying().(*types.Slice)
	return isSlice
}

// isArenaExpr reports whether evaluating e yields arena-carved storage
// (under the current owned set, with self considered owned).
func isArenaExpr(pkg *Package, e ast.Expr, self types.Object, owned map[types.Object]bool, carvers map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		obj := baseObject(pkg, e)
		return obj != nil && (obj == self || owned[obj])
	case *ast.IndexExpr:
		return isArenaExpr(pkg, e.X, self, owned, carvers)
	case *ast.SliceExpr:
		return isArenaExpr(pkg, e.X, self, owned, carvers)
	case *ast.CallExpr:
		if isBuiltinCall(pkg, e, "append") && len(e.Args) > 0 {
			return isArenaExpr(pkg, e.Args[0], self, owned, carvers)
		}
		if callee := calleeOf(pkg, e); callee != nil && carvers[callee] {
			return true
		}
		return false
	}
	return false
}
