// Package cfg builds per-function control-flow graphs over the plain AST —
// no SSA, no x/tools — precise enough for the isolation analyzer: basic
// blocks of leaf statements connected by successor edges, with an entry
// block and a liveness (reachability) query.
//
// Control statements are decomposed, never stored: an *ast.IfStmt contributes
// its Init statement to the current block and its branches to new blocks, so
// every simple statement (assignment, inc/dec, send, expression, declaration,
// defer, go, return, branch) appears as a leaf of exactly one block. A
// statement that only executes after a `return`, an unconditional branch, or
// a bare `panic(...)` lands in a block with no path from the entry and is
// reported dead by Live.
//
// The graph over-approximates: every conditional is assumed to go both ways
// and `for { ... }` with no break never reaches its follow block. That is
// exactly the conservative direction the isolation analyzer needs — a write
// is only excused when no path can reach it.
package cfg

import "go/ast"

// Block is one basic block: a maximal run of leaf statements with a single
// entry at the top, plus the successor edges out of its end.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable across builds of
	// the same function; useful in tests and debug output).
	Index int
	// Stmts are the leaf statements in execution order.
	Stmts []ast.Stmt
	// Succs are the possible successor blocks, in source order.
	Succs []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Blocks []*Block
}

// New builds the CFG of a function body. A nil body (declaration without a
// definition, e.g. assembly-backed) yields a graph with an empty entry.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock()
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	return b.g
}

// Live returns the set of blocks reachable from the entry.
func (g *Graph) Live() map[*Block]bool {
	live := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		for _, s := range blk.Succs {
			if !live[s] {
				live[s] = true
				work = append(work, s)
			}
		}
	}
	return live
}

// LiveStmts returns every leaf statement that lies on some path from the
// function entry — the statements a flow-sensitive analyzer must inspect.
func (g *Graph) LiveStmts() map[ast.Stmt]bool {
	out := map[ast.Stmt]bool{}
	for blk := range g.Live() {
		for _, s := range blk.Stmts {
			out[s] = true
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Construction.

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label     string // enclosing label, "" if none
	breakB    *Block // target of break
	continueB *Block // target of continue; nil for switch/select
}

type builder struct {
	g      *Graph
	cur    *Block
	frames []frame
	// labels maps label names to their blocks, created on first use so
	// forward gotos resolve; pendingLabel carries a label into the loop
	// construct it prefixes.
	labels       map[string]*Block
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startBlock begins a new block with an edge from the current one.
func (b *builder) startBlock() *Block {
	blk := b.newBlock()
	b.edge(b.cur, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// terminate ends the current path: subsequent statements are dead until the
// next label or join point.
func (b *builder) terminate() { b.cur = b.newBlock() }

func (b *builder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = map[string]*Block{}
	}
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		blk := b.labelBlock(s.Label.Name)
		b.edge(b.cur, blk)
		b.cur = blk
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		cond := b.cur
		after := b.newBlock()
		b.cur = cond
		b.cur = b.startBlock()
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			b.cur = cond
			b.cur = b.startBlock()
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.startBlock()
		after := b.newBlock()
		post := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after) // condition may fail on entry
		}
		body := b.newBlock()
		b.edge(head, body)
		b.pushFrame(frame{label: label, breakB: after, continueB: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.popFrame()
		b.edge(b.cur, post)
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		} else {
			b.edge(post, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.startBlock()
		after := b.newBlock()
		b.edge(head, after) // empty collection
		body := b.newBlock()
		b.edge(head, body)
		b.pushFrame(frame{label: label, breakB: after, continueB: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.popFrame()
		b.edge(b.cur, head)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.switchClauses(s.Body.List, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		// The Assign statement (x := v.(type)) executes once on entry.
		if s.Assign != nil {
			b.stmt(s.Assign)
		}
		b.switchClauses(s.Body.List, true)

	case *ast.SelectStmt:
		b.switchClauses(s.Body.List, false)

	case *ast.BranchStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.branch(s)

	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.terminate()

	case *ast.ExprStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				b.terminate()
			}
		}

	case nil:
		// Absent optional statement.

	default:
		// Leaf: assignments, inc/dec, sends, declarations, defer, go, empty.
		b.cur.Stmts = append(b.cur.Stmts, s)
	}
}

// switchClauses wires the shared shape of switch, type-switch and select:
// each clause body starts from the dispatch block; fallthrough chains to the
// next clause; without a default the dispatch can skip to the join. A select
// with no clauses blocks forever.
func (b *builder) switchClauses(clauses []ast.Stmt, canFallthrough bool) {
	label := b.takeLabel()
	dispatch := b.cur
	after := b.newBlock()
	hasDefault := false

	// Create the clause body blocks up front so fallthrough can target the
	// lexically next clause.
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
		b.edge(dispatch, bodies[i])
	}
	b.pushFrame(frame{label: label, breakB: after})
	for i, cs := range clauses {
		var list []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			if cs.List == nil {
				hasDefault = true
			}
			list = cs.Body
		case *ast.CommClause:
			if cs.Comm == nil {
				hasDefault = true
			} else {
				// The communication op (send/receive) executes when chosen.
				bodies[i].Stmts = append(bodies[i].Stmts, cs.Comm)
			}
			list = cs.Body
		}
		b.cur = bodies[i]
		// fallthrough is only legal as the final statement; detect it so the
		// edge goes to the next clause body instead of the join.
		ft := -1
		if canFallthrough && len(list) > 0 {
			if br, ok := list[len(list)-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" && i+1 < len(bodies) {
				ft = i + 1
			}
		}
		b.stmtList(list)
		if ft >= 0 {
			b.edge(b.cur, bodies[ft])
		} else {
			b.edge(b.cur, after)
		}
	}
	b.popFrame()
	// A switch with no default can skip every case; a select without a
	// default blocks until some clause is ready, so there is no skip edge
	// (and an empty select blocks forever).
	if canFallthrough && !hasDefault {
		b.edge(dispatch, after)
	}
	b.cur = after
}

func (b *builder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "goto":
		if s.Label != nil {
			b.edge(b.cur, b.labelBlock(s.Label.Name))
		}
		b.terminate()
	case "break":
		if f := b.findFrame(s.Label, false); f != nil {
			b.edge(b.cur, f.breakB)
		}
		b.terminate()
	case "continue":
		if f := b.findFrame(s.Label, true); f != nil {
			b.edge(b.cur, f.continueB)
		}
		b.terminate()
	case "fallthrough":
		// Handled by switchClauses; as a plain statement it ends the path.
		b.terminate()
	}
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) pushFrame(f frame) { b.frames = append(b.frames, f) }
func (b *builder) popFrame()         { b.frames = b.frames[:len(b.frames)-1] }

// findFrame resolves break/continue to its enclosing construct; needContinue
// skips switch/select frames, which continue cannot target.
func (b *builder) findFrame(label *ast.Ident, needContinue bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needContinue && f.continueB == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}
