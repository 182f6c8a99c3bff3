package lir

// Range-driven passes: consumers of AnalyzeRanges (range.go). All three are
// new searchable genes in the pass-selection space (§3.5, Fig. 6) — the GA
// can schedule them anywhere in a pipeline, so each one re-derives its facts
// from the function as it stands rather than assuming any canonical shape.
//
//   - rangecheckelim deletes OpBoundsCheck values whose index is proven in
//     [0, arrlen) and marks Div/Rem values NoTrap when the divisor is proven
//     nonzero, so lowering can emit the unguarded machine divide.
//   - rangebranch folds conditional branches with a single feasible outcome,
//     unlocking dead-block pruning in the next simplifycfg/Recompute.
//   - rangestrength rewrites div/rem by a power-of-two constant into
//     shift/mask when the dividend is proven nonnegative — the sound sibling
//     of instcombine's unsafe div-to-shr.
//
// Safety under translation validation: removing a proven check shrinks the
// trap-risky op set, which tv classifies Unverified (never Rejected — the
// disprover only fires on paired values proven unequal). Only rangebranch
// declares the CFG trait: AnalyzeRanges' Recompute finds the CFG the pipeline
// left and changes nothing.

func init() { registerRangePasses() }

func registerRangePasses() {
	register(&PassInfo{
		Name: "rangecheckelim",
		Doc:  "delete bounds checks and divide trap guards that value ranges prove can never fire",
		Params: []ParamSpec{
			// divs=0 restricts the pass to bounds checks (no NoTrap marking).
			{Name: "divs", Default: 1, Min: 0, Max: 1},
		},
		Run: runRangeCheckElim,
	})
	register(&PassInfo{
		Name: "rangebranch",
		Doc:  "fold conditional branches whose condition has a single feasible outcome",
		Params: []ParamSpec{
			// Each round re-analyzes: folding one branch can tighten phi
			// joins enough to decide another.
			{Name: "rounds", Default: 1, Min: 1, Max: 4},
		},
		Run: runRangeBranch,
		CFG: true,
	})
	register(&PassInfo{
		Name: "rangestrength",
		Doc:  "div/rem by a power-of-two constant becomes shift/mask when the dividend is proven nonnegative",
		Params: []ParamSpec{
			// rem=0 restricts the pass to divisions.
			{Name: "rem", Default: 1, Min: 0, Max: 1},
		},
		Run: runRangeStrength,
	})
}

func runRangeCheckElim(f *Function, ctx *PassContext, params map[string]int) error {
	ra := AnalyzeRanges(f, ctx.Static)
	dead := map[*Value]bool{}
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op != OpBoundsCheck {
				continue
			}
			if _, ok := ra.ProvenInBounds(v); !ok {
				continue
			}
			dead[v] = true
			if ctx.Tracing() {
				ri := ra.At(b, v.Args[1])
				ctx.Note("rangecheckelim.bounds", NoteAnchor(b, v),
					KV("idx-lo", ri.Lo), KV("idx-hi", ri.Hi))
			}
		}
	}
	if len(dead) > 0 {
		removeValues(f, dead)
	}
	if params["divs"] != 1 {
		return nil
	}
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if (v.Op != OpDiv && v.Op != OpRem) || v.NoTrap {
				continue
			}
			if _, ok := ra.NonZeroAt(b, v.Args[1]); !ok {
				continue
			}
			// The proof is flow-sensitive at v's block, which is sound to
			// cache on the value: no pass hoists Div/Rem (both impure), and
			// argument replacements (GVN, storeforward) substitute equal
			// values, preserving nonzero-ness.
			v.NoTrap = true
			if ctx.Tracing() {
				rd := ra.At(b, v.Args[1])
				ctx.Note("rangecheckelim.divguard", NoteAnchor(b, v),
					KV("div-lo", rd.Lo), KV("div-hi", rd.Hi))
			}
		}
	}
	return nil
}

func runRangeBranch(f *Function, ctx *PassContext, params map[string]int) error {
	for round := 0; round < params["rounds"]; round++ {
		// AnalyzeRanges recomputes, pruning the previous round's
		// now-unreachable side.
		ra := AnalyzeRanges(f, ctx.Static)
		folded := 0
		for _, b := range f.Blocks {
			keep, _, ok := ra.FoldableBranch(b)
			if !ok || b.Succs[0] == b.Succs[1] {
				continue // identical successors are simplifycfg's case
			}
			if ctx.Tracing() {
				t := b.Term()
				rA, rC := ra.At(b, t.Args[0]), ra.At(b, t.Args[1])
				ctx.Note("rangebranch.fold", NoteAnchor(b, t), KV("keep", int64(keep)),
					KV("a-lo", rA.Lo), KV("a-hi", rA.Hi), KV("b-lo", rC.Lo), KV("b-hi", rC.Hi))
			}
			// Facts stay valid across the sweep: folding only removes edges,
			// which can only shrink the set of paths a recorded fact covers.
			foldBranch(b, keep)
			folded++
		}
		if folded == 0 {
			break
		}
	}
	return nil
}

func runRangeStrength(f *Function, ctx *PassContext, params map[string]int) error {
	doRem := params["rem"] == 1
	ra := AnalyzeRanges(f, ctx.Static)
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op != OpDiv && v.Op != OpRem {
				continue
			}
			if v.Op == OpRem && !doRem {
				continue
			}
			c, ok := isConstInt(v.Args[1])
			if !ok {
				continue
			}
			sh, pow2 := isPowerOfTwo(c)
			if !pow2 {
				continue
			}
			rd := ra.At(b, v.Args[0])
			if !rd.NonNeg() {
				continue
			}
			// For x ≥ 0: x / 2^k == x >> k (truncation is floor) and
			// x % 2^k == x & (2^k - 1). Both are wrong for negative x, which
			// is exactly what instcombine's unsafe div-to-shr ignores.
			cst := f.NewValue(OpConstInt, TInt)
			if v.Op == OpDiv {
				if ctx.Tracing() {
					ctx.Note("rangestrength.shr", NoteAnchor(b, v),
						KV("shift", sh), KV("num-lo", rd.Lo))
				}
				v.Op = OpShr
				cst.Imm = sh
			} else {
				if ctx.Tracing() {
					ctx.Note("rangestrength.mask", NoteAnchor(b, v),
						KV("mask", c-1), KV("num-lo", rd.Lo))
				}
				v.Op = OpAnd
				cst.Imm = c - 1
			}
			insertBefore(b, v, cst)
			v.Args[1] = cst
			v.NoTrap = false // no longer a trapping op; drop the stale hint
		}
	}
	return nil
}
