package lir

import "slices"

// CFG edit primitives: the surgery the restructuring passes (unroll, peel,
// vectorize, unswitch, simplifycfg, rangebranch, licm, inline, devirt) and
// lowering share.
//
// The contract: every edit keeps Succs, Preds and phi arguments consistent,
// and keeps each phi argument at its predecessor's index. No edit recomputes,
// and none reorders Blocks. splitEdge, ensurePreheader and cloneLoop append
// the blocks they create to Blocks; splitBlock leaves appending to its
// caller. An edge split changes no dominance between existing blocks, so a
// caller may go on reading the Loops and dominators it had before one (licm
// does, across loops); a block created after a Loops call lies outside every
// loop it returned. Every other edit leaves rpo, IDom and loops stale: the
// caller recomputes (analysis.go) before it next reads them; the pipeline
// recomputes after the pass returns.

// removePred deletes the last occurrence of p from b.Preds, with the phi
// arguments at its index. It does nothing when p is not a predecessor.
func removePred(b, p *Block) {
	for i := len(b.Preds) - 1; i >= 0; i-- {
		if b.Preds[i] != p {
			continue
		}
		b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
		for _, phi := range b.Phis {
			if i < len(phi.Args) {
				phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
			}
		}
		return
	}
}

// foldBranch turns b's two-way branch into a jump to b.Succs[keep] and drops
// the other edge. Both successors may be the same block. It can orphan
// blocks.
func foldBranch(b *Block, keep int) {
	t := b.Term()
	removePred(b.Succs[1-keep], b)
	t.Op, t.Args = OpJump, nil
	b.Succs = []*Block{b.Succs[keep]}
}

// splitEdge puts a new jump block on the edge from p to p.Succs[i] and
// appends it to Blocks. The new block takes p's first place in the
// successor's Preds, so phi arguments keep their index.
func splitEdge(f *Function, p *Block, i int) *Block {
	s := p.Succs[i]
	e := f.NewBlock()
	e.AppendRaw(f.NewValue(OpJump, TVoid))
	e.Preds = []*Block{p}
	e.Succs = []*Block{s}
	p.Succs[i] = e
	s.Preds[slices.Index(s.Preds, p)] = e
	f.Blocks = append(f.Blocks, e)
	return e
}

// ensurePreheader returns the unique block through which the loop is
// entered, splitting the entering edge if that block has other successors.
// It returns nil when the loop has several entering edges (such loops are
// skipped).
func ensurePreheader(f *Function, l *Loop) *Block {
	var enters []*Block
	for _, p := range l.Head.Preds {
		if !l.Contains(p) {
			enters = append(enters, p)
		}
	}
	if len(enters) != 1 {
		return nil
	}
	p := enters[0]
	if len(p.Succs) == 1 {
		return p
	}
	return splitEdge(f, p, slices.Index(p.Succs, l.Head))
}

// moveSuccs hands from's successor edges to to, in order, and leaves from
// with none. Each successor keeps its Preds order.
func moveSuccs(from, to *Block) {
	to.Succs, from.Succs = from.Succs, nil
	for _, s := range to.Succs {
		for i, p := range s.Preds {
			if p == from {
				s.Preds[i] = to
			}
		}
	}
}

// splitBlock splits b at v: v is dropped, the values after it move to a new
// block that takes over b's successors, and b is left without a terminator
// for the caller to end. The caller appends the new block to Blocks. It
// returns nil, and edits nothing, when v is not in b.
func splitBlock(f *Function, b *Block, v *Value) *Block {
	i := slices.Index(b.Insns, v)
	if i < 0 {
		return nil
	}
	nb := f.NewBlock()
	nb.Insns = append(nb.Insns, b.Insns[i+1:]...)
	for _, w := range nb.Insns {
		w.Block = nb
	}
	b.Insns = b.Insns[:i]
	moveSuccs(b, nb)
	return nb
}

// cloneLoop copies l's blocks, with every Value field, appends the copies to
// Blocks in l's order, and returns each loop block's copy. M pre-maps values
// the copy reads instead of copying them: a pre-mapped phi or instruction is
// left out, and its uses read M's value; a pre-mapped terminator leaves its
// block's copy without one, for the caller to end. On return M also maps each
// copied value to its copy. Edges keep their order: an edge inside the loop
// goes between the copies, an exit edge goes from the copy to the same
// outside block (whose Preds the caller extends if it keeps the edge), and an
// entering edge leaves a nil predecessor for the caller to fill. IDs are
// allocated to the blocks first, then to the phis, then to the instructions,
// each in l's order; callers rely on that order because the IR hash covers
// IDs.
func cloneLoop(f *Function, l *Loop, M map[*Value]*Value) map[*Block]*Block {
	bm := make(map[*Block]*Block, len(l.Blocks))
	for _, b := range l.Blocks {
		bm[b] = f.NewBlock()
	}
	var phis []*Value // the copied phis, in copy order
	for _, b := range l.Blocks {
		for _, phi := range b.Phis {
			if _, ok := M[phi]; ok {
				continue
			}
			c := f.NewValue(OpPhi, phi.Type)
			c.Block = bm[b]
			c.Args = make([]*Value, len(phi.Args))
			bm[b].Phis = append(bm[b].Phis, c)
			M[phi] = c
			phis = append(phis, phi)
		}
	}
	mapped := func(a *Value) *Value {
		if m, ok := M[a]; ok {
			return m
		}
		return a
	}
	// Blocks are in reverse postorder, so defs precede uses except through
	// phis, whose arguments are filled last.
	for _, b := range l.Blocks {
		nb := bm[b]
		for _, v := range b.Insns {
			if _, ok := M[v]; ok {
				continue
			}
			c := f.NewValue(v.Op, v.Type)
			c.Imm, c.F, c.Sym, c.Slot, c.Cond, c.Hint, c.NoTrap = v.Imm, v.F, v.Sym, v.Slot, v.Cond, v.Hint, v.NoTrap
			c.Args = make([]*Value, len(v.Args))
			for i, a := range v.Args {
				c.Args[i] = mapped(a)
			}
			nb.AppendRaw(c)
			M[v] = c
		}
		for _, s := range b.Succs {
			if l.Contains(s) {
				s = bm[s]
			}
			nb.Succs = append(nb.Succs, s)
		}
		// Preds mirror the original order: phi arguments are copied by
		// index, so a permuted list would silently rewire phis (an inner
		// loop counter reading its init on the backedge loops forever).
		for _, p := range b.Preds {
			if l.Contains(p) {
				p = bm[p]
			} else {
				p = nil
			}
			nb.Preds = append(nb.Preds, p)
		}
	}
	for _, phi := range phis {
		c := M[phi]
		for i, a := range phi.Args {
			c.Args[i] = mapped(a)
		}
	}
	for _, b := range l.Blocks {
		f.Blocks = append(f.Blocks, bm[b])
	}
	return bm
}

// loopShape is the loop shape unroll, peel, vectorize and unswitch rewrite:
// the head has two predecessors, the preheader and the latch, and two
// successors, one in the loop and the loop's only exit edge.
type loopShape struct {
	loop              *Loop
	head, body, exit  *Block // body is the head's successor in the loop
	ph, latch         *Block // set by enter
	initIdx, latchIdx int    // head pred indexes of ph and latch
}

// loopShapeOf matches l against loopShape's head and exit without editing
// anything. A caller adds its own checks before enter, so that a loop it
// rejects gets no preheader.
func loopShapeOf(l *Loop) (*loopShape, bool) {
	head := l.Head
	if len(head.Preds) != 2 || len(head.Succs) != 2 {
		return nil, false
	}
	var exit *Block
	for _, b := range l.Blocks {
		for _, s := range b.Succs {
			if l.Contains(s) {
				continue
			}
			if b != head || exit != nil {
				return nil, false
			}
			exit = s
		}
	}
	if exit == nil {
		return nil, false
	}
	body := head.Succs[0]
	if body == exit {
		body = head.Succs[1]
	}
	return &loopShape{loop: l, head: head, body: body, exit: exit}, true
}

// enter finds the loop's preheader, splitting the entering edge if needed,
// and its latch. It reports false when the loop has several entering edges.
func (sh *loopShape) enter(f *Function) bool {
	sh.ph = ensurePreheader(f, sh.loop)
	if sh.ph == nil {
		return false
	}
	// One of the head's two predecessors enters; the other is the latch.
	sh.initIdx = sh.head.PredIndex(sh.ph)
	sh.latchIdx = 1 - sh.initIdx
	sh.latch = sh.head.Preds[sh.latchIdx]
	return true
}
