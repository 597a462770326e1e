// Package lint is a stdlib-only static-analysis suite that turns the
// repository's kernel contracts — Ctx variants with checkpointed
// cancellation, registered failpoint sites, panic recovery at
// goroutine boundaries, typed %w-wrapped errors — into machine-checked
// invariants.  It is deliberately built on go/parser, go/ast, go/types
// and go/importer alone, so the module keeps its zero-dependency
// guarantee while still getting go/analysis-style file:line
// diagnostics.  The cmd/hyperplexvet command runs the suite; the
// self-lint test pins the whole repository to zero diagnostics.
//
// A diagnostic is suppressed by an ignore directive trailing the
// offending line, or standing alone on the line (or comment block)
// directly above it:
//
//	//hyperplexvet:ignore nopanic documented invariant, callers own the precondition
//
// The directive names one or more analyzers (comma-separated) and must
// state a reason; a directive without a reason, or naming an unknown
// analyzer, is itself reported and cannot be suppressed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is the one-line description shown by hyperplexvet -list.
	Doc string
	// Run reports the analyzer's findings on one package via Reportf.
	Run func(*Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		BudgetTick, CtxFirst, CtxPair, ErrWrap, FailpointSite, GoRecover,
		HotAlloc, Int32Narrow, NoPanic, WireDispatch,
	}
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Prog is the load the package came from; it lets analyzers resolve
	// facts about module-internal callees in other packages.
	Prog   *Program
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos unless an ignore directive
// covering this analyzer is attached to that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunSuite runs the analyzers over every package of the program and
// returns the surviving diagnostics sorted by position.  Ignore
// directives are validated against the full suite (All) plus the
// analyzers actually being run, so a partial -only invocation does not
// misreport directives for the analyzers it skipped.
func RunSuite(prog *Program, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		sup, bad := scanIgnores(prog.Fset, pkg, known)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Pkg:      pkg,
				Prog:     prog,
				report: func(d Diagnostic) {
					if !sup.covers(d.Pos.Filename, d.Pos.Line, d.Analyzer) {
						diags = append(diags, d)
					}
				},
			}
			a.Run(pass)
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
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// directivePrefix introduces every hyperplexvet comment directive.
const directivePrefix = "//hyperplexvet:"

// suppressions maps file name → line → set of analyzer names ignored
// on that line.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) covers(file string, line int, analyzer string) bool {
	return s[file][line][analyzer]
}

func (s suppressions) add(file string, line int, analyzer string) {
	byLine, ok := s[file]
	if !ok {
		byLine = make(map[int]map[string]bool)
		s[file] = byLine
	}
	names, ok := byLine[line]
	if !ok {
		names = make(map[string]bool)
		byLine[line] = names
	}
	names[analyzer] = true
}

// directive is one parsed //hyperplexvet: comment: its verb, the raw
// text after the verb, and the source line it governs (its own line
// when trailing code, the first line after the comment group when the
// group stands alone).
type directive struct {
	verb       string
	args       string
	pos        token.Pos
	file       string
	targetLine int
}

// directiveVerbs is every defined directive.  ignore suppresses
// diagnostics (handled by scanIgnores); the marker verbs are collected
// into the facts registry and consumed by the flow-sensitive analyzers.
var directiveVerbs = map[string]bool{
	"ignore":    true, // ignore <analyzers> <reason>
	"hotpath":   true, // marks a function or statement as an allocation-free region
	"wiretypes": true, // marks the const block declaring the wire frame types
	"wiresend":  true, // marks a func whose first byte param is a frame type being sent
	"wirerecv":  true, // marks a func whose first byte param is a dispatch position
}

// packageDirectives parses every hyperplexvet directive in the package.
func packageDirectives(fset *token.FileSet, pkg *Package) []directive {
	var out []directive
	for _, file := range pkg.Files {
		filename := fset.Position(file.Pos()).Filename
		src := pkg.Sources[filename]
		for _, group := range file.Comments {
			standalone := commentStartsLine(fset, src, group.Pos())
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				verb, args, _ := strings.Cut(rest, " ")
				target := fset.Position(c.Pos()).Line
				if standalone {
					target = fset.Position(group.End()).Line + 1
				}
				out = append(out, directive{
					verb:       verb,
					args:       args,
					pos:        c.Pos(),
					file:       filename,
					targetLine: target,
				})
			}
		}
	}
	return out
}

// scanIgnores collects the ignore directives of every file in the
// package.  A directive in a standalone comment group applies to the
// first line after the group (so directives stack above the code they
// cover); a trailing directive applies to its own line.  Malformed
// directives — no reason, unknown analyzer, unknown verb, a marker
// verb with bad arguments — come back as unsuppressible diagnostics
// under the pseudo-analyzer name "hyperplexvet".
func scanIgnores(fset *token.FileSet, pkg *Package, known map[string]bool) (suppressions, []Diagnostic) {
	sup := make(suppressions)
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "hyperplexvet",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, d := range packageDirectives(fset, pkg) {
		if !directiveVerbs[d.verb] {
			verbs := make([]string, 0, len(directiveVerbs))
			for v := range directiveVerbs {
				verbs = append(verbs, v)
			}
			sort.Strings(verbs)
			report(d.pos, "unknown directive %s%s (defined: %s)", directivePrefix, d.verb, strings.Join(verbs, ", "))
			continue
		}
		switch d.verb {
		case "ignore":
			fields := strings.Fields(d.args)
			if len(fields) < 2 {
				report(d.pos, "malformed ignore directive: want %signore <analyzers> <reason>", directivePrefix)
				continue
			}
			for _, name := range strings.Split(fields[0], ",") {
				if !known[name] {
					report(d.pos, "ignore directive names unknown analyzer %q", name)
					continue
				}
				sup.add(d.file, d.targetLine, name)
			}
		}
	}
	return sup, bad
}

// commentStartsLine reports whether only whitespace precedes pos on
// its line, i.e. the comment stands alone rather than trailing code.
func commentStartsLine(fset *token.FileSet, src []byte, pos token.Pos) bool {
	tf := fset.File(pos)
	if tf == nil || src == nil {
		return false
	}
	p := fset.Position(pos)
	start := tf.Offset(tf.LineStart(p.Line))
	end := tf.Offset(pos)
	if start < 0 || end > len(src) || start > end {
		return false
	}
	return strings.TrimSpace(string(src[start:end])) == ""
}

// --- shared AST/type helpers used by several analyzers ---

// isContextType reports whether t is exactly context.Context.
func isContextType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// funcsOf calls fn for every top-level function declaration in the
// package, files in order.
func funcsOf(pkg *Package, fn func(*ast.File, *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn(file, fd)
			}
		}
	}
}

// isPkgFunc reports whether the call invokes the named function from
// the package whose import path has the given suffix (an exact path
// also matches).
func isPkgFunc(pkg *Package, call *ast.CallExpr, pathSuffix, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pathSuffix || strings.HasSuffix(p, "/"+pathSuffix)
}

// isBuiltinCall reports whether the call invokes the named universe
// builtin (panic, recover, ...).
func isBuiltinCall(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
