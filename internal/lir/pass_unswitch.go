package lir

// Loop unswitching (§5.2 lists it among the optimizations winning genomes
// used): a loop containing a branch on a loop-invariant condition is
// duplicated, with each version specialized to one side of the branch, and
// the condition hoisted to a guard in front.

func init() {
	register(&PassInfo{
		Name:   "unswitch",
		Doc:    "hoist loop-invariant branches by duplicating the loop per branch side",
		Run:    runUnswitch,
		Traits: Traits{CFG: true, Mem: true},
	})
}

func runUnswitch(f *Function, ctx *PassContext, _ map[string]int) error {
	done := map[*Block]bool{}
	for {
		// The one Recompute per unswitched loop: Loops reads dominators.
		f.Recompute()
		applied := false
		for _, l := range f.Loops() {
			if done[l.Head] {
				continue
			}
			if unswitchOne(f, l) {
				if ctx.Tracing() {
					ctx.Note("unswitch.duplicate", NoteAnchor(l.Head, nil), KV("depth", int64(l.Depth)))
				}
				done[l.Head] = true
				applied = true
				if err := ctx.checkGrowth(f, "unswitch"); err != nil {
					f.Recompute() // the rewrite trace hashes what a failed pass leaves
					return err
				}
				break // loop structures are stale; rescan
			}
			done[l.Head] = true
		}
		if !applied {
			f.Recompute() // unswitchOne may have split preheaders
			return nil
		}
	}
}

// unswitchOne transforms one loop if it matches the restricted shape:
// canonical-ish (unique preheader; head has 2 preds; the head owns the only
// exit; the exit target has the head as its only predecessor) and contains
// an invariant two-way branch whose successors both stay in the loop. The
// clone and the guard are appended to Blocks: the caller recomputes.
func unswitchOne(f *Function, l *Loop) bool {
	head := l.Head
	if len(head.Preds) != 2 || len(head.Succs) != 2 {
		return false
	}
	// Single exit edge from the head; exit target has one pred.
	var exit *Block
	for _, b := range l.Blocks {
		for _, s := range b.Succs {
			if l.Contains(s) {
				continue
			}
			if b != head || exit != nil {
				return false
			}
			exit = s
		}
	}
	if exit == nil || len(exit.Preds) != 1 {
		return false
	}
	ph := ensurePreheader(f, l)
	if ph == nil {
		return false
	}
	initIdx := head.PredIndex(ph)
	var latch *Block
	for _, p := range head.Preds {
		if l.Contains(p) {
			latch = p
		}
	}
	if latch == nil || initIdx < 0 {
		return false
	}
	latchIdx := head.PredIndex(latch)

	// Find an invariant in-loop branch (not the head's own check).
	// Constants rematerialized inside the loop still count as invariant;
	// the guard clones them if needed.
	inLoop := func(v *Value) bool {
		if v.Op == OpConstInt || v.Op == OpConstFloat {
			return false
		}
		return v.Block != nil && l.Contains(v.Block)
	}
	var swb *Block
	for _, b := range l.Blocks {
		if b == head {
			continue
		}
		t := b.Term()
		if t == nil || t.Op != OpBranch {
			continue
		}
		if inLoop(t.Args[0]) || inLoop(t.Args[1]) {
			continue
		}
		if !l.Contains(b.Succs[0]) || !l.Contains(b.Succs[1]) {
			continue
		}
		swb = b
		break
	}
	if swb == nil {
		return false
	}
	cond := swb.Term()

	// ---- Clone the whole loop (head included, check preserved). ----
	blocks := l.Blocks
	bm := map[*Block]*Block{}
	for _, b := range blocks {
		bm[b] = f.NewBlock()
	}
	M := map[*Value]*Value{}
	// Phi shells for every loop block, including the head.
	for _, b := range blocks {
		for _, phi := range b.Phis {
			c := f.NewValue(OpPhi, phi.Type)
			c.Block = bm[b]
			c.Args = make([]*Value, len(phi.Args))
			bm[b].Phis = append(bm[b].Phis, c)
			M[phi] = c
		}
	}
	mapped := func(a *Value) *Value {
		if m, ok := M[a]; ok {
			return m
		}
		return a
	}
	for _, b := range blocks {
		nb := bm[b]
		for _, v := range b.Insns {
			c := f.NewValue(v.Op, v.Type)
			c.Imm, c.F, c.Sym, c.Slot, c.Cond, c.Hint = v.Imm, v.F, v.Sym, v.Slot, v.Cond, v.Hint
			c.Args = make([]*Value, len(v.Args))
			for i, a := range v.Args {
				c.Args[i] = mapped(a)
			}
			nb.AppendRaw(c)
			M[v] = c
		}
		// Successor positions preserved; the head's exit edge goes to the
		// shared exit block.
		for _, s := range b.Succs {
			if l.Contains(s) {
				nb.Succs = append(nb.Succs, bm[s])
			} else {
				nb.Succs = append(nb.Succs, exit)
			}
		}
	}
	// Clone preds mirror original order (phi args are positional).
	for _, b := range blocks {
		nb := bm[b]
		for _, p := range b.Preds {
			if l.Contains(p) {
				nb.Preds = append(nb.Preds, bm[p])
			} else {
				// The entry edge: reassigned to the guard below.
				nb.Preds = append(nb.Preds, nil)
			}
		}
	}
	// Fill cloned phi args: in-loop args map; entry args stay (values from
	// outside the loop).
	for _, b := range blocks {
		for pi, phi := range b.Phis {
			c := bm[b].Phis[pi]
			for i, a := range phi.Args {
				c.Args[i] = mapped(a)
			}
		}
	}
	for _, b := range blocks {
		f.Blocks = append(f.Blocks, bm[b])
	}
	headC := bm[head]

	// ---- Guard: branch on the invariant condition. ----
	G := f.NewBlock()
	f.Blocks = append(f.Blocks, G)
	guardArg := func(a *Value) *Value {
		// In-loop constants are rematerialized in the guard block (they do
		// not dominate it).
		if (a.Op == OpConstInt || a.Op == OpConstFloat) && a.Block != nil && l.Contains(a.Block) {
			c := f.NewValue(a.Op, a.Type)
			c.Imm, c.F = a.Imm, a.F
			c.Block = G
			G.Insns = append(G.Insns, c)
			return c
		}
		return a
	}
	guard := f.NewValue(OpBranch, TVoid, guardArg(cond.Args[0]), guardArg(cond.Args[1]))
	guard.Cond = cond.Cond
	G.AppendRaw(guard)
	G.Succs = []*Block{head, headC}
	G.Preds = []*Block{ph}
	for i, s := range ph.Succs {
		if s == head {
			ph.Succs[i] = G
		}
	}
	head.Preds[initIdx] = G // phi args unchanged
	headC.Preds[initIdx] = G
	_ = latchIdx

	// ---- Specialize the branch in each version. ----
	rewireToJump := func(b *Block, keep int) {
		t := b.Term()
		dead := b.Succs[1-keep]
		t.Op = OpJump
		t.Args = nil
		live := b.Succs[keep]
		removeLastPredOccurrence(dead, b)
		b.Succs = []*Block{live}
	}
	rewireToJump(swb, 0)     // original loop: condition true
	rewireToJump(bm[swb], 1) // clone: condition false

	// ---- Exit merge: the exit now has two predecessors; loop-defined
	// values used after the loop must merge through phis. Only head-defined
	// values (and head phis) can have such uses (the head dominated the old
	// exit). ----
	exit.Preds = append(exit.Preds, headC)
	var headVals []*Value
	for _, p := range head.Phis {
		headVals = append(headVals, p)
	}
	for _, v := range head.Body() {
		if v.Type != TVoid {
			headVals = append(headVals, v)
		}
	}
	loopSet := map[*Block]bool{}
	for _, b := range l.Blocks {
		loopSet[b] = true
		loopSet[bm[b]] = true
	}
	for _, v := range headVals {
		// Does v have uses outside both loop versions?
		used := false
		for _, b := range f.Blocks {
			if loopSet[b] {
				continue
			}
			for _, u := range b.Phis {
				for _, a := range u.Args {
					if a == v {
						used = true
					}
				}
			}
			for _, u := range b.Insns {
				for _, a := range u.Args {
					if a == v {
						used = true
					}
				}
			}
		}
		if !used {
			continue
		}
		merge := f.NewValue(OpPhi, v.Type)
		merge.Block = exit
		merge.Args = []*Value{v, mapped(v)}
		exit.Phis = append(exit.Phis, merge)
		// Replace outside uses (but not the merge phi itself).
		for _, b := range f.Blocks {
			if loopSet[b] {
				continue
			}
			for _, u := range b.Phis {
				if u == merge {
					continue
				}
				for i, a := range u.Args {
					if a == v {
						u.Args[i] = merge
					}
				}
			}
			for _, u := range b.Insns {
				for i, a := range u.Args {
					if a == v {
						u.Args[i] = merge
					}
				}
			}
		}
	}
	return true
}

// removeLastPredOccurrence removes the last entry of p in b.Preds along with
// the matching phi args.
func removeLastPredOccurrence(b, p *Block) {
	removeLastPred(b, p)
}
