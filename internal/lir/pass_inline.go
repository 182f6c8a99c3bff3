package lir

// Interprocedural passes: inlining, profile-guided speculative
// devirtualization (§3.4's novel profile source), and the paper's custom
// JNI-math-to-intrinsic replacement (§3.5).

import (
	"fmt"
	"slices"

	"replayopt/internal/dex"
)

func init() { registerInlinePasses() }

func registerInlinePasses() {
	register(&PassInfo{
		Name: "inline",
		Doc:  "inline small static callees",
		Params: []ParamSpec{
			// Maximum callee size in IR values.
			{Name: "threshold", Default: 40, Min: 1, Max: 4000},
			// Rounds of re-inlining newly exposed calls.
			{Name: "rounds", Default: 1, Min: 1, Max: 6},
		},
		Run: runInline,
		CFG: true,
	})
	register(&PassInfo{
		Name: "devirt",
		Doc:  "speculative devirtualization driven by the interpreted-replay type profile",
		Params: []ParamSpec{
			// Minimum share (percent) of the dominant receiver class.
			{Name: "min-share", Default: 90, Min: 50, Max: 100},
			// nofallback=1 drops the class guard: the direct call is taken
			// unconditionally, which is wrong whenever an unprofiled
			// receiver type shows up.
			{Name: "nofallback", Default: 0, Min: 0, Max: 1, Unsafe: true},
		},
		Run: runDevirt,
		CFG: true,
	})
	register(&PassInfo{
		Name: "intrinsics",
		Doc:  "custom pass (§3.5): replace JNI math natives with IR intrinsics",
		Run: func(f *Function, ctx *PassContext, _ map[string]int) error {
			runIntrinsics(f, ctx)
			return nil
		},
	})
}

func runIntrinsics(f *Function, ctx *PassContext) {
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op != OpCallNative {
				continue
			}
			nt := f.Prog.Natives[v.Sym]
			if nt.Intrinsic == dex.IntrinsicNone {
				continue
			}
			if ctx.Tracing() {
				ctx.Note("intrinsics.replace", NoteAnchor(b, v), KV("intrinsic", int64(nt.Intrinsic)))
			}
			v.Op = OpIntrinsic
			v.Sym = int(nt.Intrinsic)
		}
	}
}

func runInline(f *Function, ctx *PassContext, params map[string]int) error {
	threshold := params["threshold"]
	if threshold < 1 {
		threshold = 40
	}
	rounds := params["rounds"]
	if rounds < 1 {
		rounds = 1
	}
	budget := 60 // call sites per invocation; a compile-time guard
	var subst substitution
	for r := 0; r < rounds; r++ {
		if r > 0 {
			// Splicing leaves Blocks out of order; this round collects its
			// call sites in reverse postorder.
			f.Recompute()
		}
		inlinedAny := false
		// Snapshot call sites: splicing mutates the block list.
		type site struct {
			b *Block
			v *Value
		}
		var sites []site
		for _, b := range f.Blocks {
			for _, v := range b.Insns {
				if v.Op == OpCallStatic {
					sites = append(sites, site{b, v})
				}
			}
		}
		for _, s := range sites {
			if budget <= 0 {
				break
			}
			target := dex.MethodID(s.v.Sym)
			if target == f.Method {
				continue // direct recursion
			}
			callee := f.Prog.Methods[target]
			if callee.Uncompilable || len(callee.Code) > threshold {
				if ctx.Tracing() && !callee.Uncompilable {
					ctx.Note("inline.reject", NoteAnchor(s.b, s.v),
						KV("callee", int64(target)), KV("size", int64(len(callee.Code))),
						KV("threshold", int64(threshold)))
				}
				continue
			}
			if !stillPresent(f, s.b, s.v) {
				continue
			}
			if ctx.Tracing() {
				ctx.Note("inline.accept", NoteAnchor(s.b, s.v),
					KV("callee", int64(target)), KV("size", int64(len(callee.Code))),
					KV("threshold", int64(threshold)), KV("round", int64(r)))
			}
			err := inlineCall(f, ctx, s.b, s.v, target, &subst)
			if err == nil {
				budget--
				inlinedAny = true
				err = ctx.checkGrowth(f, "inline")
			}
			if err != nil {
				// The rewrite trace hashes what a failed pass leaves.
				subst.apply(f)
				return err
			}
		}
		subst.apply(f)
		if !inlinedAny {
			break
		}
	}
	return nil
}

func stillPresent(f *Function, b *Block, v *Value) bool {
	for _, x := range b.Insns {
		if x == v {
			return true
		}
	}
	return false
}

// inlineCall splices callee's SSA body in place of the call. It appends the
// callee's blocks and leaves any it orphans in place: the caller recomputes
// before it next reads block order or returns. The call's result and the
// callee's parameters are replaced through subst, which the caller applies.
func inlineCall(f *Function, ctx *PassContext, callBlock *Block, call *Value, target dex.MethodID, subst *substitution) error {
	calleeF, err := ctx.buildSSA(f.Prog, target)
	if err != nil {
		return err
	}
	// Renumber the callee's values and blocks into the caller's ID space:
	// value IDs must stay unique within a function (GVN and friends key on
	// them).
	vbase, bbase := f.nextValueID, f.nextBlockID
	for _, b := range calleeF.Blocks {
		b.ID += bbase
		for _, v := range b.Phis {
			v.ID += vbase
		}
		for _, v := range b.Insns {
			v.ID += vbase
		}
	}
	f.nextValueID += calleeF.nextValueID
	f.nextBlockID += calleeF.nextBlockID

	// Split the call block: callBlock keeps everything before the call;
	// cont gets the rest.
	cont := splitBlock(f, callBlock, call)
	if cont == nil {
		// runInline checks stillPresent first, and the callee's IDs are
		// already allocated into f: there is no consistent way back.
		return &CrashError{Pass: "inline", Msg: fmt.Sprintf("call v%d is not in b%d", call.ID, callBlock.ID)}
	}

	// Substitute parameters with call arguments, and drop them from the
	// entry block.
	entry := calleeF.Blocks[0]
	kept := entry.Insns[:0]
	for _, v := range entry.Insns {
		if v.Op == OpParam {
			subst.add(v, call.Args[v.Slot])
		} else {
			kept = append(kept, v)
		}
	}
	entry.Insns = kept

	// Rewrite callee returns into jumps to cont; collect return values.
	var retVals []*Value
	for _, b := range calleeF.Blocks {
		t := b.Term()
		if t == nil || t.Op != OpReturn {
			continue
		}
		if len(t.Args) > 0 {
			retVals = append(retVals, t.Args[0])
		}
		t.Op = OpJump
		t.Args = nil
		AddEdge(b, cont)
	}
	// Wire the call block into the callee entry.
	jmp := f.NewValue(OpJump, TVoid)
	callBlock.AppendRaw(jmp)
	AddEdge(callBlock, entry)

	// Adopt callee blocks.
	f.Blocks = append(f.Blocks, calleeF.Blocks...)
	f.Blocks = append(f.Blocks, cont)

	// Replace the call's value.
	if call.Type != TVoid {
		switch len(retVals) {
		case 0:
			z := f.NewValue(OpConstInt, call.Type)
			cont.Insns = append([]*Value{z}, cont.Insns...)
			z.Block = cont
			subst.add(call, z)
		case 1:
			subst.add(call, retVals[0])
		default:
			phi := f.NewValue(OpPhi, call.Type)
			phi.Block = cont
			phi.Args = retVals
			cont.Phis = append(cont.Phis, phi)
			subst.add(call, phi)
		}
	}
	return nil
}

func runDevirt(f *Function, ctx *PassContext, params map[string]int) error {
	if ctx.Profile == nil && ctx.Static == nil {
		return nil
	}
	minShare := float64(params["min-share"])
	if minShare == 0 {
		minShare = 90
	}
	minShare /= 100
	nofallback := params["nofallback"] == 1

	type site struct {
		b *Block
		v *Value
	}
	var sites []site
	var subst substitution
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op == OpCallVirtual {
				sites = append(sites, site{b, v})
			}
		}
	}
	for _, s := range sites {
		// RTA mono-target first: when the class hierarchy admits exactly
		// one implementation for this declared method, the direct call
		// needs no class guard at all — this is a proof, unlike the
		// nofallback parameter, which makes the same rewrite on a bet. The
		// resulting OpCallStatic is also visible to a later inline pass.
		if ctx.Static != nil {
			if target, ok := ctx.Static.Graph.MonoTarget(dex.MethodID(s.v.Sym)); ok {
				if ctx.Tracing() {
					ctx.Note("devirt.mono", NoteAnchor(s.b, s.v), KV("target", int64(target)))
				}
				s.v.Op = OpCallStatic
				s.v.Sym = int(target)
				continue
			}
		}
		if ctx.Profile == nil {
			continue
		}
		key := SiteKey{Method: dex.MethodID(s.v.Slot), PC: int(s.v.Imm)}
		cls, share, ok := ctx.Profile.Dominant(key)
		if !ok || share < minShare {
			continue
		}
		resolved := f.Prog.Resolve(dex.MethodID(s.v.Sym), cls)
		if !stillPresent(f, s.b, s.v) {
			continue
		}
		if ctx.Tracing() {
			rule := "devirt.guard"
			if nofallback {
				rule = "devirt.nofallback"
			}
			ctx.Note(rule, NoteAnchor(s.b, s.v),
				KV("class", int64(cls)), KV("share-pct", int64(share*100)),
				KV("min-share-pct", int64(minShare*100)))
		}
		if nofallback {
			// UNSAFE: unconditional direct call; wrong for any receiver of
			// a different class.
			s.v.Op = OpCallStatic
			s.v.Sym = int(resolved)
			continue
		}
		devirtGuard(f, s.b, s.v, cls, resolved, &subst)
	}
	subst.apply(f)
	return nil
}

// devirtGuard rewrites  r = callvirt m(recv, ...)  into:
//
//	c = classof recv
//	branch(c == cls) [likely] -> fast: r1 = call resolved(...)
//	                          -> slow: r2 = callvirt m(...)
//	merge: r = phi(r1, r2)
//
// The call's result is replaced by the phi through subst, which the caller
// applies.
func devirtGuard(f *Function, b *Block, call *Value, cls dex.ClassID, resolved dex.MethodID, subst *substitution) {
	// Split b at the call; the call itself is replaced by the diamond.
	merge := splitBlock(f, b, call)
	if merge == nil {
		return
	}

	recv := call.Args[0]
	classOf := f.NewValue(OpClassOf, TInt, recv)
	b.AppendRaw(classOf)
	clsConst := f.NewValue(OpConstInt, TInt)
	clsConst.Imm = int64(cls)
	b.AppendRaw(clsConst)
	guard := f.NewValue(OpBranch, TVoid, classOf, clsConst)
	guard.Cond = CondEq
	// The replay type profile says this class dominates: predict taken.
	guard.Hint = HintTaken
	b.AppendRaw(guard)

	fast := f.NewBlock()
	slow := f.NewBlock()
	AddEdge(b, fast)
	AddEdge(b, slow)

	// Each call gets its own argument list: a later rewrite of one must not
	// reach the other.
	direct := f.NewValue(OpCallStatic, call.Type, slices.Clone(call.Args)...)
	direct.Sym = int(resolved)
	fast.AppendRaw(direct)
	fast.AppendRaw(f.NewValue(OpJump, TVoid))
	AddEdge(fast, merge)

	virt := f.NewValue(OpCallVirtual, call.Type, slices.Clone(call.Args)...)
	virt.Sym = call.Sym
	virt.Imm = call.Imm
	slow.AppendRaw(virt)
	slow.AppendRaw(f.NewValue(OpJump, TVoid))
	AddEdge(slow, merge)

	f.Blocks = append(f.Blocks, fast, slow, merge)
	if call.Type != TVoid {
		phi := f.NewValue(OpPhi, call.Type)
		phi.Block = merge
		phi.Args = []*Value{direct, virt}
		merge.Phis = append(merge.Phis, phi)
		subst.add(call, phi)
	}
}
