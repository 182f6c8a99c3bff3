package lir

// Loop restructuring passes: unrolling (with and without the remainder
// loop), peeling, and a "vectorizer" that widens call-free counted loops and
// crashes on anything else — the compile-time failure source of Fig. 1.

import "slices"

func init() { registerLoopPasses() }

func registerLoopPasses() {
	register(&PassInfo{
		Name: "unroll",
		Doc:  "unroll canonical counted loops with a scalar remainder loop",
		Params: []ParamSpec{
			{Name: "factor", Default: 4, Min: 2, Max: 16},
			// Innermost-only by default; 0 unrolls every canonical loop.
			{Name: "innermost-only", Default: 1, Min: 0, Max: 1},
			// const-trip-only=1 reproduces the conservative -O3 heuristic:
			// only loops whose trip count is a compile-time constant.
			{Name: "const-trip-only", Default: 0, Min: 0, Max: 1},
			// no-remainder=1 drops the scalar remainder loop: silently wrong
			// whenever the trip count is not a multiple of the factor.
			{Name: "no-remainder", Default: 0, Min: 0, Max: 1, Unsafe: true},
		},
		Run: runUnroll,
		CFG: true,
	})
	register(&PassInfo{
		Name: "peel",
		Doc:  "peel the first iteration(s) of canonical counted loops",
		Params: []ParamSpec{
			{Name: "count", Default: 1, Min: 1, Max: 4},
		},
		Run: runPeel,
		CFG: true,
	})
	register(&PassInfo{
		Name: "vectorize",
		Doc:  "widen call-free counted loops by 4; crashes on loops with calls",
		Run:  runVectorize,
		CFG:  true,
	})
}

// countedLoop is the canonical shape the loop passes handle:
//
//	ph -> head{phis; ...; branch(iv < limit) -> body | exit}
//	body ... latch -> head
type countedLoop struct {
	loopShape
	iv    *Value
	limit *Value
	step  int64
}

// analyzeCounted matches l against the canonical shape.
func analyzeCounted(f *Function, l *Loop) (*countedLoop, bool) {
	sh, ok := loopShapeOf(l)
	if !ok {
		return nil, false
	}
	// The check must exit through Succs[1]. Self-loops (the head is its own
	// body) are excluded: cloning them with the check dropped would produce
	// an unconditional cycle.
	t := sh.head.Term()
	if t == nil || t.Op != OpBranch || t.Cond != CondLt || sh.exit != sh.head.Succs[1] || sh.body == sh.head {
		return nil, false
	}
	if !sh.enter(f) {
		return nil, false
	}
	cl := &countedLoop{loopShape: *sh}
	iv := t.Args[0]
	if iv.Op != OpPhi || iv.Block != cl.head {
		return nil, false
	}
	cl.iv = iv
	cl.limit = t.Args[1]
	inLoop := cl.limit.Block != nil && l.Contains(cl.limit.Block)
	if inLoop && cl.limit.Op != OpConstInt {
		return nil, false // limit not available at the preheader
	}
	// iv's latch input must be iv + positive constant.
	next := iv.Args[cl.latchIdx]
	if next.Op != OpAdd {
		return nil, false
	}
	var stepV *Value
	switch {
	case next.Args[0] == iv:
		stepV = next.Args[1]
	case next.Args[1] == iv:
		stepV = next.Args[0]
	default:
		return nil, false
	}
	s, ok := isConstInt(stepV)
	if !ok || s <= 0 {
		return nil, false
	}
	cl.step = s
	return cl, true
}

// limitAtPreheader returns a value equal to the loop limit that dominates
// the preheader, materializing in-loop constants there.
func (cl *countedLoop) limitAtPreheader(f *Function) *Value {
	if cl.limit.Block == nil || !cl.loop.Contains(cl.limit.Block) {
		return cl.limit
	}
	c := f.NewValue(OpConstInt, TInt)
	c.Imm = cl.limit.Imm
	cl.ph.Append(c)
	return c
}

// stage is one cloned copy of the loop produced by cloneStage.
type stage struct {
	head  *Block            // clone of the head (no phis; ends in a Jump)
	latch *Block            // clone of the latch; its backedge goes to head until connectBackedge
	out   map[*Value]*Value // head phi -> its value after this stage
}

// connectBackedge points the stage's backedge at target, appending
// target.Preds (the caller appends matching phi args if target has phis).
func (st *stage) connectBackedge(target *Block) {
	st.latch.Succs[slices.Index(st.latch.Succs, st.head)] = target
	target.Preds = append(target.Preds, st.latch)
}

// cloneStage clones every loop block. M pre-maps the head's phis to the
// stage's incoming values and is extended with all cloned values. The cloned
// head drops the check (its terminator becomes a Jump to the cloned body)
// and has no predecessors; the latch's backedge is left for connectBackedge.
func cloneStage(f *Function, cl *countedLoop, M map[*Value]*Value) *stage {
	M[cl.head.Term()] = nil // the per-stage check is dropped
	bm := cloneLoop(f, cl.loop, M)
	hc := bm[cl.head]
	hc.AppendRaw(f.NewValue(OpJump, TVoid))
	hc.Succs, hc.Preds = hc.Succs[:1], nil // body is the head's Succs[0]
	out := map[*Value]*Value{}
	for _, phi := range cl.head.Phis {
		v := phi.Args[cl.latchIdx]
		if m, ok := M[v]; ok {
			v = m
		}
		out[phi] = v
	}
	return &stage{head: hc, latch: bm[cl.latch], out: out}
}

func runUnroll(f *Function, ctx *PassContext, params map[string]int) error {
	factor := max(params["factor"], 2)
	constOnly := params["const-trip-only"] == 1
	noRemainder := params["no-remainder"] == 1
	return unrollLoops(f, ctx, "unroll", factor, params["innermost-only"] != 0, noRemainder,
		func(cl *countedLoop) (bool, error) {
			trip, isC := isConstInt(cl.limit)
			if constOnly && !isC {
				return false, nil
			}
			if ctx.Tracing() {
				if !isC {
					trip = -1
				}
				ctx.Note("unroll.widen", NoteAnchor(cl.head, nil),
					KV("factor", int64(factor)), KV("step", cl.step),
					KV("const-limit", trip), KV("no-remainder", b2i(noRemainder)))
			}
			return true, nil
		})
}

// unrollLoops is unroll's and vectorize's driver: it unrolls each counted
// loop that pick accepts by factor, once. pick sees each candidate at most
// once; false skips it, and an error ends the pass.
func unrollLoops(f *Function, ctx *PassContext, pass string, factor int, innerOnly, noRemainder bool,
	pick func(*countedLoop) (bool, error)) error {
	processed := map[*Block]bool{}
	for {
		// Loops reads dominators, which the last unrolled loop left stale.
		f.Recompute()
		loops := f.Loops()
		var target *countedLoop
		for _, l := range loops {
			if processed[l.Head] || innerOnly && !l.Innermost {
				continue
			}
			cl, ok := analyzeCounted(f, l)
			if ok {
				var err error
				if ok, err = pick(cl); err != nil {
					return err
				}
			}
			if !ok {
				processed[l.Head] = true
				continue
			}
			target = cl
			break
		}
		if target == nil {
			return nil
		}
		mainHead := unrollOne(f, target, factor, noRemainder)
		// Neither the new main loop nor the remainder loop is unrolled
		// again by this invocation.
		processed[mainHead] = true
		processed[target.head] = true
		if err := ctx.checkGrowth(f, pass); err != nil {
			return err
		}
	}
}

// unrollOne rewrites one canonical loop and returns the new main-loop head.
// The stages and the new head are appended to Blocks, and with no-remainder
// the old loop is orphaned in place: the caller recomputes.
func unrollOne(f *Function, cl *countedLoop, factor int, noRemainder bool) *Block {
	// New main header with fresh phis: args[0] = preheader, args[1] = last
	// stage's backedge.
	H := f.NewBlock()
	f.Blocks = append(f.Blocks, H)
	newPhi := map[*Value]*Value{}
	for _, p := range cl.head.Phis {
		np := f.NewValue(OpPhi, p.Type)
		np.Block = H
		np.Args = make([]*Value, 2)
		np.Args[0] = p.Args[cl.initIdx]
		H.Phis = append(H.Phis, np)
		newPhi[p] = np
	}
	// uLimit = limit - (factor-1)*step, computed in the preheader.
	limitPH := cl.limitAtPreheader(f)
	adj := f.NewValue(OpConstInt, TInt)
	adj.Imm = int64(factor-1) * cl.step
	cl.ph.Append(adj)
	uLimit := f.NewValue(OpSub, TInt, limitPH, adj)
	cl.ph.Append(uLimit)

	// Stages.
	var stages []*stage
	M := map[*Value]*Value{}
	for _, p := range cl.head.Phis {
		M[p] = newPhi[p]
	}
	for k := 0; k < factor; k++ {
		st := cloneStage(f, cl, M)
		stages = append(stages, st)
		M = map[*Value]*Value{}
		for _, p := range cl.head.Phis {
			M[p] = st.out[p]
		}
	}
	// H: branch(iv' < uLimit) -> stage0.head | (remainder | exit).
	br := f.NewValue(OpBranch, TVoid, newPhi[cl.iv], uLimit)
	br.Cond = CondLt
	H.AppendRaw(br)
	H.Succs = append(H.Succs, stages[0].head)
	stages[0].head.Preds = append(stages[0].head.Preds, H)
	for k := 0; k+1 < len(stages); k++ {
		stages[k].connectBackedge(stages[k+1].head)
	}
	stages[len(stages)-1].connectBackedge(H)
	for _, p := range cl.head.Phis {
		newPhi[p].Args[1] = stages[len(stages)-1].out[p]
	}
	// H.Preds: [preheader, lastLatch] to match phi arg order.
	H.Preds = append([]*Block{cl.ph}, H.Preds...)
	for i, s := range cl.ph.Succs {
		if s == cl.head {
			cl.ph.Succs[i] = H
		}
	}

	if noRemainder {
		// UNSAFE: up to factor-1 trailing iterations are dropped. Correct
		// only when the trip count is a multiple of the factor.
		exitIdx := cl.exit.PredIndex(cl.head)
		H.Succs = append(H.Succs, cl.exit)
		cl.exit.Preds = append(cl.exit.Preds, H)
		for _, phi := range cl.exit.Phis {
			phi.Args = append(phi.Args, phi.Args[exitIdx])
		}
		var subst substitution
		for _, p := range cl.head.Phis {
			subst.add(p, newPhi[p])
		}
		subst.apply(f)
		// Detach the original loop; it becomes unreachable.
		removePred(cl.head, cl.ph)
	} else {
		// Remainder = the original loop, entered with the main loop's
		// final values through the preheader slot.
		H.Succs = append(H.Succs, cl.head)
		cl.head.Preds[cl.initIdx] = H
		for _, p := range cl.head.Phis {
			p.Args[cl.initIdx] = newPhi[p]
		}
	}
	return H
}

func runPeel(f *Function, ctx *PassContext, params map[string]int) error {
	count := params["count"]
	if count < 1 {
		count = 1
	}
	for n := 0; n < count; n++ {
		// Loops reads dominators, which the last peel left stale.
		f.Recompute()
		peeled := false
		for _, l := range f.Loops() {
			cl, ok := analyzeCounted(f, l)
			if !ok {
				continue
			}
			if ctx.Tracing() {
				ctx.Note("peel.iteration", NoteAnchor(cl.head, nil),
					KV("iteration", int64(n)), KV("step", cl.step))
			}
			peelOne(f, cl)
			if err := ctx.checkGrowth(f, "peel"); err != nil {
				return err
			}
			peeled = true
			break
		}
		if !peeled {
			break
		}
	}
	return nil
}

// peelOne executes the first iteration under its own guard:
//
//	ph -> G{branch(init < limit)} -> bodyClone ... latchClone -> head
//	            \---------------------------------------------> head
//
// Both edges reach the original head, which re-checks; the head keeps its
// phi structure with one extra predecessor. The clone is appended to Blocks:
// the caller recomputes.
func peelOne(f *Function, cl *countedLoop) {
	limitPH := cl.limitAtPreheader(f)
	M := map[*Value]*Value{}
	inits := map[*Value]*Value{}
	for _, p := range cl.head.Phis {
		M[p] = p.Args[cl.initIdx]
		inits[p] = p.Args[cl.initIdx]
	}
	st := cloneStage(f, cl, M)
	G := st.head
	// Restore the guard check in place of the stage's Jump.
	br := f.NewValue(OpBranch, TVoid, inits[cl.iv], limitPH)
	br.Cond = CondLt
	br.Block = G
	G.Insns[len(G.Insns)-1] = br
	// G.Succs: [bodyClone (taken), head (skip)].
	G.Succs = append(G.Succs, cl.head)
	// Rewire: preheader -> G; head's preheader slot becomes G (same args).
	for i, s := range cl.ph.Succs {
		if s == cl.head {
			cl.ph.Succs[i] = G
		}
	}
	G.Preds = append(G.Preds, cl.ph)
	cl.head.Preds[cl.initIdx] = G
	// The peeled latch rejoins the head with post-iteration values.
	st.connectBackedge(cl.head)
	for _, p := range cl.head.Phis {
		p.Args = append(p.Args, st.out[p])
	}
}

// runVectorize "vectorizes" call-free canonical loops by widening them 4x
// (modeled as unrolling with a scalar remainder). Loops containing calls
// make it crash — the not-implemented path every real vectorizer has, and
// Fig. 1's compiler-error class.
func runVectorize(f *Function, ctx *PassContext, _ map[string]int) error {
	return unrollLoops(f, ctx, "vectorize", 4, true, false, func(cl *countedLoop) (bool, error) {
		for _, b := range cl.loop.Blocks {
			for _, v := range b.Insns {
				if isCall(v) {
					return false, &CrashError{Pass: "vectorize",
						Msg: "cannot widen loop containing call in " + f.Name}
				}
			}
		}
		if ctx.Tracing() {
			ctx.Note("vectorize.widen", NoteAnchor(cl.head, nil),
				KV("width", 4), KV("step", cl.step))
		}
		return true, nil
	})
}
