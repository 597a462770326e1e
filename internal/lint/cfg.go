package lint

import (
	"go/ast"
)

// This file is the intraprocedural control-flow layer of the suite: a
// small statement-level CFG over one function body, built from syntax
// alone, with the reachability query the flow-sensitive analyzer
// budgettick is written against.
//
// The graph is deliberately coarse.  Nodes are basic blocks of
// statements; expressions never split a block, so a condition with side
// effects lives in the block that evaluates it.  An analyzer that cares
// about a statement class marks whole blocks (a block containing a
// checkpoint statement is a checkpointed block) and asks whether one
// block reaches another while avoiding marked blocks — path-sensitivity
// at block granularity, which is exactly enough for "every iteration
// path passes a checkpoint".

// Block is one basic block: straight-line statements and the successor
// edges control can take afterwards.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block
}

// LoopInfo ties one for/range statement to its CFG anatomy.
type LoopInfo struct {
	// Stmt is the *ast.ForStmt or *ast.RangeStmt.
	Stmt ast.Stmt
	// Head is the loop header: the block that evaluates the condition
	// (or range step) and branches into the body or out of the loop.
	Head *Block
	// Latch is the block every completed iteration passes through on
	// its way back to Head (continue statements target it; a ForStmt
	// post statement lives in it).
	Latch *Block
	// Exit is the block control reaches when the loop terminates.
	Exit *Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // every return, and falling off the end, leads here
	Blocks []*Block
	// Loops maps each for/range statement in the body (FuncLit bodies
	// excluded) to its blocks.
	Loops map[ast.Stmt]*LoopInfo
}

// BuildCFG builds the CFG of a function body.  atomic, when non-nil,
// names statements to keep opaque: a statement for which it returns
// true is appended to the current block as a single node even if it is
// compound (its internal control flow — including any break, continue
// or return it contains — is not modeled, and control is assumed to
// continue after it).  Analyzers use this to collapse statements they
// treat as indivisible, e.g. an if-block that performs a checkpoint.
// Function literals are never descended into; they execute elsewhere.
func BuildCFG(body *ast.BlockStmt, atomic func(ast.Stmt) bool) *CFG {
	b := &cfgBuilder{
		g:      &CFG{Loops: make(map[ast.Stmt]*LoopInfo)},
		atomic: atomic,
		labels: make(map[string]*labelInfo),
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.collectLabels(body)
	if end := b.stmts(body.List, b.g.Entry); end != nil {
		b.link(end, b.g.Exit)
	}
	return b.g
}

// Reaches reports whether control can flow from one block to another
// along edges that avoid blocked blocks.  A blocked from or to makes
// the answer false: a path cannot start inside, end inside, or pass
// through a blocked block.  from == to asks for a non-trivial cycle
// back to the same block.
func (g *CFG) Reaches(from, to *Block, blocked func(*Block) bool) bool {
	if from == nil || to == nil || blocked != nil && (blocked(from) || blocked(to)) {
		return false
	}
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{}
	push := func(b *Block) {
		if !seen[b.Index] && (blocked == nil || !blocked(b)) {
			seen[b.Index] = true
			stack = append(stack, b)
		}
	}
	// Seed with successors, not from itself, so from == to detects a
	// true cycle rather than the empty path.
	for _, s := range from.Succs {
		push(s)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		for _, s := range b.Succs {
			push(s)
		}
	}
	return false
}

// labelInfo is the resolution state of one label: the block the label
// heads (goto target) and, once the labeled statement turns out to be a
// loop or switch, the break/continue targets.
type labelInfo struct {
	head       *Block
	breakT     *Block
	continueT  *Block
	isLoopLike bool
}

type cfgBuilder struct {
	g      *CFG
	atomic func(ast.Stmt) bool
	labels map[string]*labelInfo

	// Innermost enclosing targets for plain break/continue, and the
	// next-case block for fallthrough.
	breakT, contT, fallT *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// collectLabels pre-creates a head block for every label in the body
// (FuncLits excluded), so forward gotos resolve while building.
func (b *cfgBuilder) collectLabels(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ls, ok := n.(*ast.LabeledStmt); ok {
			b.labels[ls.Label.Name] = &labelInfo{head: b.newBlock()}
		}
		return true
	})
}

// stmts builds a statement list starting in cur; it returns the block
// where control continues, or nil if every path left the list (return,
// break, goto, ...).
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		if cur == nil {
			// Dead statements after a terminator still need building so
			// labels inside them resolve; give them a detached block.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	if b.atomic != nil && b.atomic(s) {
		cur.Stmts = append(cur.Stmts, s)
		return cur
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(s.List, cur)

	case *ast.LabeledStmt:
		li := b.labels[s.Label.Name]
		b.link(cur, li.head)
		return b.labeled(s, li)

	case *ast.BranchStmt:
		cur.Stmts = append(cur.Stmts, s)
		return b.branch(s, cur)

	case *ast.ReturnStmt:
		cur.Stmts = append(cur.Stmts, s)
		b.link(cur, b.g.Exit)
		return nil

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: s.Cond})
		after := b.newBlock()
		thenB := b.newBlock()
		b.link(cur, thenB)
		if end := b.stmt(s.Body, thenB); end != nil {
			b.link(end, after)
		}
		if s.Else != nil {
			elseB := b.newBlock()
			b.link(cur, elseB)
			if end := b.stmt(s.Else, elseB); end != nil {
				b.link(end, after)
			}
		} else {
			b.link(cur, after)
		}
		return after

	case *ast.ForStmt:
		return b.forLoop(s, cur, nil)

	case *ast.RangeStmt:
		return b.rangeLoop(s, cur, nil)

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		if s.Tag != nil {
			cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: s.Tag})
		}
		return b.switchBody(s.Body, cur, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Stmts = append(cur.Stmts, s.Init)
		}
		cur.Stmts = append(cur.Stmts, s.Assign)
		return b.switchBody(s.Body, cur, nil)

	case *ast.SelectStmt:
		return b.selectBody(s.Body, cur, nil)

	default:
		// Assignments, declarations, expression/send/incdec statements,
		// defer and go: straight-line.  A direct panic(...) terminates
		// the path (recover only matters across function boundaries the
		// CFG does not model).
		cur.Stmts = append(cur.Stmts, s)
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					b.link(cur, b.g.Exit)
					return nil
				}
			}
		}
		return cur
	}
}

// labeled builds the statement under a label, wiring labeled break and
// continue through the labelInfo.
func (b *cfgBuilder) labeled(s *ast.LabeledStmt, li *labelInfo) *Block {
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		li.isLoopLike = true
		return b.forLoop(inner, li.head, li)
	case *ast.RangeStmt:
		li.isLoopLike = true
		return b.rangeLoop(inner, li.head, li)
	case *ast.SwitchStmt:
		li.isLoopLike = true
		if inner.Init != nil {
			li.head.Stmts = append(li.head.Stmts, inner.Init)
		}
		if inner.Tag != nil {
			li.head.Stmts = append(li.head.Stmts, &ast.ExprStmt{X: inner.Tag})
		}
		return b.switchBody(inner.Body, li.head, li)
	case *ast.TypeSwitchStmt:
		li.isLoopLike = true
		if inner.Init != nil {
			li.head.Stmts = append(li.head.Stmts, inner.Init)
		}
		li.head.Stmts = append(li.head.Stmts, inner.Assign)
		return b.switchBody(inner.Body, li.head, li)
	case *ast.SelectStmt:
		li.isLoopLike = true
		return b.selectBody(inner.Body, li.head, li)
	default:
		return b.stmt(s.Stmt, li.head)
	}
}

// branch routes a break/continue/goto/fallthrough out of cur; it
// returns nil (control left) except for an unresolvable target, which
// is treated as straight-line to stay total on odd input.
func (b *cfgBuilder) branch(s *ast.BranchStmt, cur *Block) *Block {
	target := func(breakNotCont bool) *Block {
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.isLoopLike {
				if breakNotCont {
					return li.breakT
				}
				return li.continueT
			}
			return nil
		}
		if breakNotCont {
			return b.breakT
		}
		return b.contT
	}
	var t *Block
	switch s.Tok.String() {
	case "break":
		t = target(true)
	case "continue":
		t = target(false)
	case "goto":
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				t = li.head
			}
		}
	case "fallthrough":
		t = b.fallT
	}
	if t == nil {
		return cur
	}
	b.link(cur, t)
	return nil
}

// forLoop builds a ForStmt rooted at cur (which already holds the
// label head when the loop is labeled).
func (b *cfgBuilder) forLoop(s *ast.ForStmt, cur *Block, li *labelInfo) *Block {
	if s.Init != nil {
		cur.Stmts = append(cur.Stmts, s.Init)
	}
	head := b.newBlock()
	b.link(cur, head)
	if s.Cond != nil {
		head.Stmts = append(head.Stmts, &ast.ExprStmt{X: s.Cond})
	}
	latch := b.newBlock()
	if s.Post != nil {
		latch.Stmts = append(latch.Stmts, s.Post)
	}
	b.link(latch, head)
	exit := b.newBlock()
	if s.Cond != nil {
		b.link(head, exit)
	}
	body := b.newBlock()
	b.link(head, body)
	b.g.Loops[s] = &LoopInfo{Stmt: s, Head: head, Latch: latch, Exit: exit}
	if li != nil {
		li.breakT, li.continueT = exit, latch
	}
	b.inLoop(exit, latch, func() {
		if end := b.stmt(s.Body, body); end != nil {
			b.link(end, latch)
		}
	})
	return exit
}

// rangeLoop builds a RangeStmt; the range header acts as both
// condition and post, so Head doubles as the Latch target.
func (b *cfgBuilder) rangeLoop(s *ast.RangeStmt, cur *Block, li *labelInfo) *Block {
	cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: s.X})
	head := b.newBlock()
	b.link(cur, head)
	latch := b.newBlock()
	b.link(latch, head)
	exit := b.newBlock()
	b.link(head, exit)
	body := b.newBlock()
	b.link(head, body)
	b.g.Loops[s] = &LoopInfo{Stmt: s, Head: head, Latch: latch, Exit: exit}
	if li != nil {
		li.breakT, li.continueT = exit, latch
	}
	b.inLoop(exit, latch, func() {
		if end := b.stmt(s.Body, body); end != nil {
			b.link(end, latch)
		}
	})
	return exit
}

// inLoop runs fn with break/continue targets swapped in; fallthrough
// is not legal across a loop boundary, so it resets too.
func (b *cfgBuilder) inLoop(breakT, contT *Block, fn func()) {
	oldB, oldC, oldF := b.breakT, b.contT, b.fallT
	b.breakT, b.contT, b.fallT = breakT, contT, nil
	fn()
	b.breakT, b.contT, b.fallT = oldB, oldC, oldF
}

// switchBody builds the clauses of a switch or type switch rooted at
// cur.  Each clause gets its own block reachable from cur; without a
// default clause, cur also flows directly to the exit.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, cur *Block, li *labelInfo) *Block {
	exit := b.newBlock()
	if li != nil {
		li.breakT, li.continueT = exit, nil
	}
	oldB, oldF := b.breakT, b.fallT
	b.breakT = exit

	var clauseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		clauseBlocks = append(clauseBlocks, b.newBlock())
	}
	for i, cc := range clauses {
		blk := clauseBlocks[i]
		b.link(cur, blk)
		for _, e := range cc.List {
			blk.Stmts = append(blk.Stmts, &ast.ExprStmt{X: e})
		}
		if i+1 < len(clauseBlocks) {
			b.fallT = clauseBlocks[i+1]
		} else {
			b.fallT = nil
		}
		if end := b.stmts(cc.Body, blk); end != nil {
			b.link(end, exit)
		}
	}
	if !hasDefault {
		b.link(cur, exit)
	}
	b.breakT, b.fallT = oldB, oldF
	return exit
}

// selectBody builds the comm clauses of a select rooted at cur.
func (b *cfgBuilder) selectBody(body *ast.BlockStmt, cur *Block, li *labelInfo) *Block {
	exit := b.newBlock()
	if li != nil {
		li.breakT, li.continueT = exit, nil
	}
	oldB := b.breakT
	b.breakT = exit
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.link(cur, blk)
		if cc.Comm != nil {
			blk.Stmts = append(blk.Stmts, cc.Comm)
		}
		if end := b.stmts(cc.Body, blk); end != nil {
			b.link(end, exit)
		}
	}
	// A select without default blocks until some clause runs; control
	// never skips past it, so no cur→exit edge.
	_ = hasDefault
	b.breakT = oldB
	return exit
}
