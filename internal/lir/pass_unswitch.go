package lir

// Loop unswitching (§5.2 lists it among the optimizations winning genomes
// used): a loop containing a branch on a loop-invariant condition is
// duplicated, with each version specialized to one side of the branch, and
// the condition hoisted to a guard in front.

import "slices"

func init() {
	register(&PassInfo{
		Name: "unswitch",
		Doc:  "hoist loop-invariant branches by duplicating the loop per branch side",
		Run:  runUnswitch,
		CFG:  true,
	})
}

func runUnswitch(f *Function, ctx *PassContext, _ map[string]int) error {
	var done []bool // loop heads already tried, by Block.ID
	for {
		// Loops reads dominators, which the last unswitch left stale.
		f.Recompute()
		done = append(done, make([]bool, f.nextBlockID-len(done))...)
		applied := false
		for _, l := range f.Loops() {
			if done[l.Head.ID] {
				continue
			}
			done[l.Head.ID] = true
			if unswitchOne(f, l) {
				if ctx.Tracing() {
					ctx.Note("unswitch.duplicate", NoteAnchor(l.Head, nil), KV("depth", int64(l.Depth)))
				}
				applied = true
				if err := ctx.checkGrowth(f, "unswitch"); err != nil {
					return err
				}
				break // loop structures are stale; rescan
			}
		}
		if !applied {
			return nil
		}
	}
}

// unswitchOne transforms one loop if it has loopShape, the exit target has
// the head as its only predecessor, and the loop contains an invariant
// two-way branch whose successors both stay in the loop. The clone and the
// guard are appended to Blocks: the caller recomputes.
func unswitchOne(f *Function, l *Loop) bool {
	sh, ok := loopShapeOf(l)
	if !ok || len(sh.exit.Preds) != 1 || !sh.enter(f) {
		return false
	}
	head, exit, ph := sh.head, sh.exit, sh.ph

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
	M := map[*Value]*Value{}
	bm := cloneLoop(f, l, M)
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
	head.Preds[sh.initIdx] = G // phi args unchanged
	headC.Preds[sh.initIdx] = G

	// ---- Specialize the branch in each version. ----
	foldBranch(swb, 0)     // original loop: condition true
	foldBranch(bm[swb], 1) // clone: condition false

	// ---- Exit merge: the exit now has two predecessors; loop-defined
	// values used after the loop must merge through phis. Only head-defined
	// values (and head phis) can have such uses (the head dominated the old
	// exit). ----
	exit.Preds = append(exit.Preds, headC)
	headVals := slices.Clone(head.Phis)
	for _, v := range head.Body() {
		if v.Type != TVoid {
			headVals = append(headVals, v)
		}
	}
	// One sweep over the blocks outside both loop versions collects every
	// use of a head value.
	inVersion := make([]bool, f.nextBlockID)
	for _, b := range l.Blocks {
		inVersion[b.ID], inVersion[bm[b].ID] = true, true
	}
	slot := make([]int32, f.nextValueID) // value ID -> index in headVals + 1
	for i, v := range headVals {
		slot[v.ID] = int32(i + 1)
	}
	type use struct {
		user *Value
		arg  int
	}
	uses := make([][]use, len(headVals))
	for _, b := range f.Blocks {
		if inVersion[b.ID] {
			continue
		}
		for _, list := range [2][]*Value{b.Phis, b.Insns} {
			for _, u := range list {
				for i, a := range u.Args {
					if k := slot[a.ID] - 1; k >= 0 && headVals[k] == a {
						uses[k] = append(uses[k], use{u, i})
					}
				}
			}
		}
	}
	for k, v := range headVals {
		if len(uses[k]) == 0 {
			continue
		}
		merge := f.NewValue(OpPhi, v.Type)
		merge.Block = exit
		merge.Args = []*Value{v, M[v]}
		exit.Phis = append(exit.Phis, merge)
		for _, u := range uses[k] {
			u.user.Args[u.arg] = merge
		}
	}
	return true
}
