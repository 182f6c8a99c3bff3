// Package hgraph builds the control-flow graph IR the baseline compiler and
// the LLVM-analogue backend both start from — the analogue of ART's HGraph
// in the paper's §2 compilation pipeline.
// It provides basic blocks over dex instructions in reverse postorder, and
// answers dominance, loop-header and liveness queries through
// internal/flow.
package hgraph

import (
	"fmt"

	"replayopt/internal/dex"
	"replayopt/internal/flow"
)

// Block is one basic block: straight-line dex instructions ending in an
// (implicit or explicit) terminator.
type Block struct {
	// ID is the block's position in Graph.Blocks; -1 for a block the entry
	// does not reach, which Blocks leaves out.
	ID    int
	Insns []dex.Insn
	// StartPC is the original bytecode pc of Insns[0], valid until a pass
	// mutates the block (used to key type-profile call sites).
	StartPC int
	// Succs: for a conditional branch, Succs[0] is the taken edge and
	// Succs[1] the fall-through; for goto/fall-through blocks one entry;
	// empty for return/throw blocks.
	Succs []*Block
	Preds []*Block

	// domPre and domPost are the block's dominator-tree interval, numbered
	// from 1; both 0 for a block the entry does not reach.
	domPre, domPost int32
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() dex.Insn {
	if len(b.Insns) == 0 {
		return dex.Insn{Op: dex.OpNop}
	}
	return b.Insns[len(b.Insns)-1]
}

// Graph is the CFG of one method.
type Graph struct {
	Prog   *dex.Program
	Method *dex.Method
	Blocks []*Block // in reverse postorder; Blocks[0] is the entry
}

// Build constructs the CFG for m. Branch targets inside block instructions
// are left as original pcs; control flow is expressed by Succs edges only.
func Build(prog *dex.Program, m *dex.Method) (*Graph, error) {
	code := m.Code
	if len(code) == 0 {
		return nil, fmt.Errorf("hgraph: %s has no code", m.Name)
	}
	// Leaders: 0, branch targets, instructions after terminators.
	leader := make([]bool, len(code))
	leader[0] = true
	for pc, in := range code {
		if in.Op == dex.OpGoto || in.Op.IsBranch() {
			leader[in.Imm] = true
		}
		if in.Op.IsTerminator() && pc+1 < len(code) {
			leader[pc+1] = true
		}
	}
	// Carve blocks, numbered for now by their position in order.
	byStart := make([]*Block, len(code))
	var order []*Block
	var cur *Block
	for pc, in := range code {
		if leader[pc] {
			cur = &Block{ID: len(order), StartPC: pc}
			byStart[pc] = cur
			order = append(order, cur)
		}
		// Deep-copy the argument slice: passes mutate block instructions in
		// place, and a shared backing array would silently corrupt the
		// original method for every later consumer.
		if in.Args != nil {
			in.Args = append([]int(nil), in.Args...)
		}
		cur.Insns = append(cur.Insns, in)
	}
	// Wire edges.
	link := func(from, to *Block) {
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}
	for i, b := range order {
		t := b.Terminator()
		switch {
		case t.Op.IsBranch():
			link(b, byStart[t.Imm])
			if i+1 < len(order) {
				link(b, order[i+1])
			} else {
				return nil, fmt.Errorf("hgraph: %s: branch falls off the end", m.Name)
			}
		case t.Op == dex.OpGoto:
			link(b, byStart[t.Imm])
		case t.Op == dex.OpReturn, t.Op == dex.OpReturnVoid, t.Op == dex.OpThrow:
			// no successors
		default:
			// Fall-through into the next leader (target of a branch).
			if i+1 < len(order) {
				link(b, order[i+1])
			} else {
				return nil, fmt.Errorf("hgraph: %s: falls off the end", m.Name)
			}
		}
	}
	// Keep the reachable blocks in flow's reverse postorder, renumbered by
	// their place there.
	edges := 0
	for _, b := range order {
		edges += len(b.Succs)
	}
	succ, pred := flow.NewAdjPair(len(order), edges)
	for _, b := range order {
		for _, s := range b.Succs {
			succ.Add(int32(s.ID))
		}
		succ.End()
		for _, p := range b.Preds {
			pred.Add(int32(p.ID))
		}
		pred.End()
	}
	dom := flow.Dominators(succ, pred, 0)
	for _, b := range order {
		b.ID = -1
	}
	g := &Graph{Prog: prog, Method: m, Blocks: make([]*Block, len(dom.Order))}
	for r, i := range dom.Order {
		b := order[i]
		b.ID, b.domPre, b.domPost = r, dom.Pre[i]+1, dom.Post[i]+1
		g.Blocks[r] = b
	}
	return g, nil
}

// Dominates reports whether a dominates b. A block the entry does not reach
// dominates only itself.
func (g *Graph) Dominates(a, b *Block) bool {
	if a.domPre == 0 || b.domPre == 0 {
		return a == b
	}
	return a.domPre <= b.domPre && b.domPre <= a.domPost
}

// IsLoopHeader reports whether b heads a natural loop: whether b dominates
// one of its predecessors, the source of a back edge.
func (g *Graph) IsLoopHeader(b *Block) bool {
	for _, p := range b.Preds {
		if g.Dominates(b, p) {
			return true
		}
	}
	return false
}
