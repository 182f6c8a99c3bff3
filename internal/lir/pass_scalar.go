package lir

// Scalar optimization passes: constant folding, instruction combining,
// reassociation, dead code elimination, global value numbering, CFG
// simplification.

import (
	"slices"

	"replayopt/internal/opsem"
)

func init() { registerScalarPasses() }

func registerScalarPasses() {
	register(&PassInfo{
		Name: "constfold",
		Doc:  "fold operations on constant operands; propagate iteratively",
		Run:  runConstFold,
		// Traits: pure local rewrites, no CFG or memory changes.
	})
	register(&PassInfo{
		Name: "instcombine",
		Doc:  "algebraic peepholes: identities, strength reduction, canonicalization",
		Params: []ParamSpec{
			// div-to-shr rewrites x / 2^k into x >> k. That is wrong for
			// negative dividends (shift rounds toward -inf, division toward
			// zero) — a classic miscompile behind an aggressive flag.
			{Name: "div-to-shr", Default: 0, Min: 0, Max: 1, Unsafe: true},
		},
		Run: runInstCombine,
	})
	register(&PassInfo{
		Name: "reassoc",
		Doc:  "reassociate integer chains to expose constants",
		Params: []ParamSpec{
			// fast=1 also reassociates floating point, changing rounding —
			// the fast-math contract violation of Fig. 1's wrong outputs.
			{Name: "fast", Default: 0, Min: 0, Max: 1, Unsafe: true},
		},
		Run: runReassoc,
	})
	register(&PassInfo{
		Name: "dce",
		Doc:  "remove pure values with no uses",
		Run: func(f *Function, _ *PassContext, _ map[string]int) error {
			runDCE(f)
			return nil
		},
	})
	register(&PassInfo{
		Name:   "gvn",
		Doc:    "dominator-scoped value numbering of pure values, lengths, and checks",
		Run:    runGVN,
		Traits: Traits{CFG: true}, // calls Recompute (may prune unreachable blocks)
	})
	register(&PassInfo{
		Name: "simplifycfg",
		Doc:  "fold constant branches, merge straight-line blocks, drop unreachable code",
		Run: func(f *Function, ctx *PassContext, _ map[string]int) error {
			folded, merged := runSimplifyCFG(f)
			if (folded > 0 || merged > 0) && ctx.Tracing() {
				ctx.Note("simplifycfg.summary", "", KV("branches-folded", folded), KV("blocks-merged", merged))
			}
			return nil
		},
		Traits: Traits{CFG: true},
	})
	register(&PassInfo{
		Name: "phisimplify",
		Doc:  "remove trivial phis",
		Run: func(f *Function, _ *PassContext, _ map[string]int) error {
			prunePhis(f)
			return nil
		},
	})
	register(&PassInfo{
		Name: "sink",
		Doc:  "sink single-use pure values toward their use blocks",
		Run: func(f *Function, _ *PassContext, _ map[string]int) error {
			runSink(f)
			return nil
		},
		Traits: Traits{CFG: true}, // calls Recompute (may prune unreachable blocks)
	})
}

func isConstInt(v *Value) (int64, bool) {
	if v.Op == OpConstInt {
		return v.Imm, true
	}
	return 0, false
}

func isConstFloat(v *Value) (float64, bool) {
	if v.Op == OpConstFloat {
		return v.F, true
	}
	return 0, false
}

func runConstFold(f *Function, ctx *PassContext, _ map[string]int) error {
	folds := int64(0)
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, v := range b.Insns {
				if foldValue(v) {
					folds++
					changed = true
				}
			}
		}
	}
	// One summary note: per-value notes would hit the cap on any constant-rich
	// method without adding information.
	if folds > 0 && ctx.Tracing() {
		ctx.Note("constfold.summary", "", KV("folds", folds))
	}
	return nil
}

// foldValue folds v in place if its operands are constants. The arithmetic
// lives in fold.go, shared with the translation validator.
func foldValue(v *Value) bool {
	switch v.Op {
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpDiv, OpRem:
		a, aok := isConstInt(v.Args[0])
		b, bok := isConstInt(v.Args[1])
		if !aok || !bok {
			return false
		}
		r, ok := FoldInt(v.Op, a, b) // div/rem by zero preserve the trap
		if !ok {
			return false
		}
		replaceWithConstInt(v, r)
		return true
	case OpNeg:
		if a, ok := isConstInt(v.Args[0]); ok {
			r, _ := FoldInt(OpNeg, a, 0)
			replaceWithConstInt(v, r)
			return true
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		a, aok := isConstFloat(v.Args[0])
		b, bok := isConstFloat(v.Args[1])
		if !aok || !bok {
			return false
		}
		r, _ := FoldFloat(v.Op, a, b)
		replaceWithConstFloat(v, r)
		return true
	case OpFNeg:
		if a, ok := isConstFloat(v.Args[0]); ok {
			r, _ := FoldFloat(OpFNeg, a, 0)
			replaceWithConstFloat(v, r)
			return true
		}
	case OpI2F:
		if a, ok := isConstInt(v.Args[0]); ok {
			replaceWithConstFloat(v, float64(a))
			return true
		}
	case OpF2I:
		if a, ok := isConstFloat(v.Args[0]); ok {
			replaceWithConstInt(v, opsem.F2I(a))
			return true
		}
	case OpFCmp:
		a, aok := isConstFloat(v.Args[0])
		b, bok := isConstFloat(v.Args[1])
		if !aok || !bok {
			return false
		}
		replaceWithConstInt(v, opsem.FCmp(a, b))
		return true
	}
	return false
}

func isPowerOfTwo(x int64) (shift int64, ok bool) {
	if x <= 0 || x&(x-1) != 0 {
		return 0, false
	}
	for x > 1 {
		x >>= 1
		shift++
	}
	return shift, true
}

func runInstCombine(f *Function, ctx *PassContext, params map[string]int) error {
	divToShr := params["div-to-shr"] == 1
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			switch v.Op {
			case OpAdd, OpMul, OpAnd, OpOr, OpXor:
				// Canonicalize: constant to the right (enables literal fusing).
				if _, ok := isConstInt(v.Args[0]); ok {
					if _, ok2 := isConstInt(v.Args[1]); !ok2 {
						v.Args[0], v.Args[1] = v.Args[1], v.Args[0]
					}
				}
			}
			switch v.Op {
			case OpAdd:
				if c, ok := isConstInt(v.Args[1]); ok && c == 0 {
					f.ReplaceUses(v, v.Args[0])
				}
			case OpSub:
				if c, ok := isConstInt(v.Args[1]); ok && c == 0 {
					f.ReplaceUses(v, v.Args[0])
				} else if v.Args[0] == v.Args[1] {
					replaceWithConstInt(v, 0)
				}
			case OpMul:
				if c, ok := isConstInt(v.Args[1]); ok {
					switch {
					case c == 1:
						f.ReplaceUses(v, v.Args[0])
					case c == 0:
						replaceWithConstInt(v, 0)
					default:
						if sh, pow2 := isPowerOfTwo(c); pow2 {
							v.Op = OpShl
							cst := f.NewValue(OpConstInt, TInt)
							cst.Imm = sh
							cst.Block = v.Block
							insertBefore(v.Block, v, cst)
							v.Args[1] = cst
						}
					}
				}
			case OpDiv:
				if c, ok := isConstInt(v.Args[1]); ok {
					if c == 1 {
						f.ReplaceUses(v, v.Args[0])
					} else if sh, pow2 := isPowerOfTwo(c); pow2 && divToShr {
						// UNSAFE: wrong for negative dividends.
						if ctx.Tracing() {
							ctx.Note("instcombine.div-to-shr", NoteAnchor(b, v), KV("shift", sh))
						}
						v.Op = OpShr
						cst := f.NewValue(OpConstInt, TInt)
						cst.Imm = sh
						cst.Block = v.Block
						insertBefore(v.Block, v, cst)
						v.Args[1] = cst
					}
				}
			case OpXor:
				if v.Args[0] == v.Args[1] {
					replaceWithConstInt(v, 0)
				}
			case OpAnd, OpOr:
				if v.Args[0] == v.Args[1] {
					f.ReplaceUses(v, v.Args[0])
				}
			case OpNeg:
				if v.Args[0].Op == OpNeg {
					f.ReplaceUses(v, v.Args[0].Args[0])
				}
			case OpFNeg:
				if v.Args[0].Op == OpFNeg {
					f.ReplaceUses(v, v.Args[0].Args[0])
				}
			case OpShl, OpShr:
				if c, ok := isConstInt(v.Args[1]); ok && c == 0 {
					f.ReplaceUses(v, v.Args[0])
				}
			}
		}
	}
	return nil
}

// insertBefore places nv immediately before anchor in b.
func insertBefore(b *Block, anchor, nv *Value) {
	nv.Block = b
	for i, v := range b.Insns {
		if v == anchor {
			b.Insns = append(b.Insns[:i], append([]*Value{nv}, b.Insns[i:]...)...)
			return
		}
	}
	b.Append(nv)
}

func runReassoc(f *Function, ctx *PassContext, params map[string]int) error {
	fast := params["fast"] == 1
	uses := f.UseCounts()
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			// (a + c1) + c2 -> a + (c1+c2); same for Mul.
			if v.Op == OpAdd || v.Op == OpMul {
				inner := v.Args[0]
				if c2, ok := isConstInt(v.Args[1]); ok && inner.Op == v.Op && uses[inner.ID] == 1 {
					if c1, ok := isConstInt(inner.Args[1]); ok {
						v.Args[0] = inner.Args[0]
						nc := f.NewValue(OpConstInt, TInt)
						if v.Op == OpAdd {
							nc.Imm = c1 + c2
						} else {
							nc.Imm = c1 * c2
						}
						insertBefore(b, v, nc)
						v.Args[1] = nc
					}
				}
			}
			// UNSAFE fast-math: rotate float chains, changing rounding:
			// (a + b) + c  ->  a + (b + c).
			if fast && (v.Op == OpFAdd || v.Op == OpFMul) {
				inner := v.Args[0]
				if inner.Op == v.Op && uses[inner.ID] == 1 && inner.Block == b {
					if ctx.Tracing() {
						ctx.Note("reassoc.fast-float", NoteAnchor(b, v))
					}
					a, bb, c := inner.Args[0], inner.Args[1], v.Args[1]
					nv := f.NewValue(v.Op, TFloat, bb, c)
					insertBefore(b, v, nv)
					v.Args[0] = a
					v.Args[1] = nv
				}
			}
		}
	}
	return nil
}

func runDCE(f *Function) {
	// Phase 1: mark-and-sweep phi webs. A phi is live only if some chain of
	// uses reaches a non-phi instruction; cycles of mutually-referencing
	// dead phis (which register reuse in the bytecode readily produces)
	// must die together or they monopolize registers.
	phiUsers := map[*Value][]*Value{} // value -> phis using it
	livePhi := map[*Value]bool{}
	var allPhis []*Value
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			allPhis = append(allPhis, phi)
			for _, a := range phi.Args {
				if a.Op == OpPhi {
					phiUsers[a] = append(phiUsers[a], phi)
				}
			}
		}
		for _, v := range b.Insns {
			for _, a := range v.Args {
				if a.Op == OpPhi {
					livePhi[a] = true // used by real code
				}
			}
		}
	}
	// Propagate liveness backward through phi-of-phi edges.
	work := make([]*Value, 0, len(livePhi))
	for p := range livePhi {
		work = append(work, p)
	}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range p.Args {
			if a.Op == OpPhi && !livePhi[a] {
				livePhi[a] = true
				work = append(work, a)
			}
		}
	}
	dead := map[*Value]bool{}
	for _, p := range allPhis {
		if !livePhi[p] {
			dead[p] = true
		}
	}
	removeValues(f, dead)

	// Phase 2: iteratively drop unused pure values.
	for {
		uses := f.UseCounts()
		dead := map[*Value]bool{}
		for _, b := range f.Blocks {
			for _, v := range b.Phis {
				if uses[v.ID] == 0 {
					dead[v] = true
				}
			}
			for _, v := range b.Insns {
				if v.IsPure() && v.Op != OpParam && uses[v.ID] == 0 {
					dead[v] = true
				}
			}
		}
		if len(dead) == 0 {
			return
		}
		removeValues(f, dead)
	}
}

type gvnKey struct {
	op   Op
	cond Cond
	imm  int64
	f    float64
	sym  int
	slot int64
	a0   int
	a1   int
	a2   int
}

func keyOf(v *Value) gvnKey {
	k := gvnKey{op: v.Op, cond: v.Cond, imm: v.Imm, f: v.F, sym: v.Sym, slot: v.Slot, a0: -1, a1: -1, a2: -1}
	if len(v.Args) > 0 {
		k.a0 = v.Args[0].ID
	}
	if len(v.Args) > 1 {
		k.a1 = v.Args[1].ID
	}
	if len(v.Args) > 2 {
		k.a2 = v.Args[2].ID
	}
	return k
}

// gvnEligible: pure values, plus ArrLen and BoundsCheck (their trap, if any,
// already fired at the dominating occurrence).
func gvnEligible(v *Value) bool {
	if v.IsPure() && v.Op != OpPhi && v.Op != OpParam {
		return true
	}
	return v.Op == OpArrLen || v.Op == OpBoundsCheck
}

func runGVN(f *Function, ctx *PassContext, _ map[string]int) error {
	f.Recompute()
	replaced := int64(0)
	kids := f.domChildren()
	// One table scoped to the dominator-tree walk: each block undoes the
	// keys it added when the walk leaves it. A key found in scope is never
	// re-inserted, so leaving a block restores its parent's table exactly.
	table := map[gvnKey]*Value{}
	// fwd[id] is the value that replaces a removed duplicate. The walk
	// visits a definition before every use it dominates, so forwarding each
	// value's arguments as it is reached sees exactly the replacements an
	// eager ReplaceUses would have made by then; one sweep at the end
	// rewrites the remaining uses (phis and non-eligible values).
	fwd := make([]*Value, f.NumValues())
	forward := func(v *Value) {
		for i, a := range v.Args {
			if r := fwd[a.ID]; r != nil {
				v.Args[i] = r
			}
		}
	}
	var dfs func(b *Block)
	dfs = func(b *Block) {
		var added []gvnKey
		var dead map[*Value]bool
		for _, v := range b.Insns {
			if !gvnEligible(v) {
				continue
			}
			forward(v)
			k := keyOf(v)
			if prev, ok := table[k]; ok {
				if v.Type != TVoid {
					fwd[v.ID] = prev
				}
				replaced++
				if dead == nil {
					dead = map[*Value]bool{}
				}
				dead[v] = true
				continue
			}
			table[k] = v
			added = append(added, k)
		}
		if dead != nil {
			b.Insns = slices.DeleteFunc(b.Insns, func(v *Value) bool { return dead[v] })
		}
		for _, c := range kids.children(b) {
			dfs(c)
		}
		for _, k := range added {
			delete(table, k)
		}
	}
	if len(f.Blocks) > 0 {
		dfs(f.Blocks[0])
	}
	if replaced > 0 {
		for _, b := range f.Blocks {
			for _, v := range b.Phis {
				forward(v)
			}
			for _, v := range b.Insns {
				forward(v)
			}
		}
	}
	if replaced > 0 && ctx.Tracing() {
		ctx.Note("gvn.summary", "", KV("replaced", replaced))
	}
	runDCE(f)
	return nil
}

// runSimplifyCFG folds constant branches, removes branches with identical
// successors, merges straight-line block pairs, and prunes unreachable
// blocks. It reports how many branches were folded and blocks merged.
func runSimplifyCFG(f *Function) (folded, merged int64) {
	stale := false
	for changed := true; changed; {
		changed = false
		foldedNow := false
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil {
				continue
			}
			if t.Op == OpBranch {
				// Identical successors: degrade to a jump, dropping one of
				// the two duplicate predecessor entries.
				if b.Succs[0] == b.Succs[1] {
					foldBranch(b, 0)
					folded++
					changed, foldedNow = true, true
					continue
				}
				// Constant condition.
				a, aok := isConstInt(t.Args[0])
				c, cok := isConstInt(t.Args[1])
				if aok && cok {
					keep := 1
					if t.Cond.Eval(a, c) {
						keep = 0
					}
					foldBranch(b, keep)
					folded++
					changed, foldedNow = true, true
					continue
				}
			}
			// Merge b -> s when s is b's only succ and b is s's only pred.
			if t.Op == OpJump && len(b.Succs) == 1 {
				s := b.Succs[0]
				if len(s.Preds) == 1 && s != b && s != f.Blocks[0] {
					// Phis in s are trivial; inline them.
					for _, phi := range s.Phis {
						f.ReplaceUses(phi, phi.Args[0])
					}
					s.Phis = nil
					b.Insns = append(b.Insns[:len(b.Insns)-1], s.Insns...)
					for _, v := range s.Insns {
						v.Block = b
					}
					moveSuccs(s, b)
					s.Preds = nil
					s.Insns = nil
					merged++
					changed, stale = true, true
					break
				}
			}
		}
		// A fold can orphan blocks and reorder the rest, so the next scan
		// needs a Recompute. A merge cannot: b takes over s's successors in
		// order, every other block keeps its place in reverse postorder, and
		// the emptied s (no terminator) is skipped until the final prune.
		if foldedNow {
			f.Recompute()
			stale = false
		}
	}
	if stale {
		f.Recompute() // drop the blocks the last merges emptied
	}
	return folded, merged
}

// runSink moves pure single-use values into the block of their unique use
// when that block is dominated by the current one (shrinking live ranges and
// avoiding computation on paths that do not need it).
func runSink(f *Function) {
	f.Recompute()
	useBlocks := map[*Value][]*Block{}
	useCount := map[*Value]int{}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			for i, a := range v.Args {
				// A phi use happens at the end of the predecessor.
				useBlocks[a] = append(useBlocks[a], b.Preds[i])
				useCount[a]++
			}
		}
		for _, v := range b.Insns {
			for _, a := range v.Args {
				useBlocks[a] = append(useBlocks[a], b)
				useCount[a]++
			}
		}
	}
	var depth []int // loop nesting depth by Block.ID, computed on first use
	for _, b := range f.Blocks {
		for _, v := range b.Body() {
			if !v.IsPure() || v.Op == OpPhi || v.Op == OpParam {
				continue
			}
			if useCount[v] != 1 {
				continue
			}
			target := useBlocks[v][0]
			if target == b || !f.Dominates(b, target) {
				continue
			}
			// Do not sink into loops (that would re-execute per iteration).
			if depth == nil {
				depth = loopDepths(f)
			}
			if depth[target.ID] > depth[b.ID] {
				continue
			}
			// Move v to the head of target (after phis, before the first
			// use; prepending keeps def-before-use).
			removeValues(f, map[*Value]bool{v: true})
			v.Block = target
			target.Insns = append([]*Value{v}, target.Insns...)
		}
	}
}

// loopDepths returns each block's loop nesting depth (0 outside every loop),
// indexed by Block.ID.
func loopDepths(f *Function) []int {
	depth := make([]int, f.nextBlockID)
	for _, l := range f.Loops() {
		for _, b := range l.Blocks {
			depth[b.ID] = max(depth[b.ID], l.Depth)
		}
	}
	return depth
}
