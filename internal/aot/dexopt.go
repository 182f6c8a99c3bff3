package aot

import (
	"replayopt/internal/dex"
	"replayopt/internal/flow"
	"replayopt/internal/hgraph"
	"replayopt/internal/opsem"
)

// The dex-level optimizations of the baseline compiler. They are all local
// (per basic block) and guaranteed-safe, mirroring ART's conservative
// character (§2: "designed to be safe rather than highly optimizing").

type constVal struct {
	isFloat bool
	i       int64
	f       float64
}

// constantFold propagates per-block constants, folds arithmetic on
// constants, and simplifies algebraic identities (the instruction_simplifier
// pass).
func constantFold(g *hgraph.Graph) {
	for _, b := range g.Blocks {
		consts := map[int]constVal{}
		for i := range b.Insns {
			in := &b.Insns[i]
			foldInsn(in, consts)
			if w := hgraph.InsnDef(g.Prog, in); w >= 0 {
				delete(consts, w)
				switch in.Op {
				case dex.OpConstInt:
					consts[in.A] = constVal{i: in.Imm}
				case dex.OpConstFloat:
					consts[in.A] = constVal{isFloat: true, f: in.F}
				}
			}
		}
	}
}

func foldInsn(in *dex.Insn, consts map[int]constVal) {
	ci := func(r int) (int64, bool) {
		v, ok := consts[r]
		if !ok || v.isFloat {
			return 0, false
		}
		return v.i, true
	}
	cf := func(r int) (float64, bool) {
		v, ok := consts[r]
		if !ok || !v.isFloat {
			return 0, false
		}
		return v.f, true
	}
	setI := func(v int64) { *in = dex.Insn{Op: dex.OpConstInt, A: in.A, Imm: v} }
	setF := func(v float64) { *in = dex.Insn{Op: dex.OpConstFloat, A: in.A, F: v} }
	mov := func(src int) { *in = dex.Insn{Op: dex.OpMove, A: in.A, B: src} }

	switch in.Op {
	case dex.OpAddInt, dex.OpSubInt, dex.OpMulInt, dex.OpAndInt, dex.OpOrInt,
		dex.OpXorInt, dex.OpShlInt, dex.OpShrInt:
		bv, bok := ci(in.B)
		cv, cok := ci(in.C)
		if bok && cok {
			switch in.Op {
			case dex.OpAddInt:
				setI(bv + cv)
			case dex.OpSubInt:
				setI(bv - cv)
			case dex.OpMulInt:
				setI(bv * cv)
			case dex.OpAndInt:
				setI(bv & cv)
			case dex.OpOrInt:
				setI(bv | cv)
			case dex.OpXorInt:
				setI(bv ^ cv)
			case dex.OpShlInt:
				setI(opsem.Shl(bv, cv))
			case dex.OpShrInt:
				setI(opsem.Shr(bv, cv))
			}
			return
		}
		// Algebraic identities.
		switch in.Op {
		case dex.OpAddInt:
			if cok && cv == 0 {
				mov(in.B)
			} else if bok && bv == 0 {
				mov(in.C)
			}
		case dex.OpSubInt:
			if cok && cv == 0 {
				mov(in.B)
			}
		case dex.OpMulInt:
			if cok && cv == 1 {
				mov(in.B)
			} else if bok && bv == 1 {
				mov(in.C)
			} else if cok && cv == 0 || bok && bv == 0 {
				setI(0)
			}
		}
	case dex.OpDivInt:
		if cv, cok := ci(in.C); cok && cv == 1 {
			mov(in.B)
		}
	case dex.OpNegInt:
		if bv, ok := ci(in.B); ok {
			setI(-bv)
		}
	case dex.OpAddFloat, dex.OpSubFloat, dex.OpMulFloat, dex.OpDivFloat:
		bv, bok := cf(in.B)
		cv, cok := cf(in.C)
		if bok && cok {
			switch in.Op {
			case dex.OpAddFloat:
				setF(bv + cv)
			case dex.OpSubFloat:
				setF(bv - cv)
			case dex.OpMulFloat:
				setF(bv * cv)
			case dex.OpDivFloat:
				setF(bv / cv)
			}
		}
	case dex.OpNegFloat:
		if bv, ok := cf(in.B); ok {
			setF(-bv)
		}
	case dex.OpIntToFloat:
		if bv, ok := ci(in.B); ok {
			setF(float64(bv))
		}
	case dex.OpFloatToInt:
		if bv, ok := cf(in.B); ok {
			setI(opsem.F2I(bv))
		}
	}
}

// cseKey identifies a pure computation for local value numbering.
type cseKey struct {
	op   dex.Op
	b, c int
	imm  int64
	f    float64
}

// localCSE removes repeated pure computations within a block (the gvn pass,
// local flavor).
func localCSE(g *hgraph.Graph) {
	for _, b := range g.Blocks {
		avail := map[cseKey]int{} // computation -> register holding it
		for i := range b.Insns {
			in := &b.Insns[i]
			var key cseKey
			pure := false
			switch in.Op {
			case dex.OpAddInt, dex.OpSubInt, dex.OpMulInt, dex.OpAndInt, dex.OpOrInt,
				dex.OpXorInt, dex.OpShlInt, dex.OpShrInt, dex.OpNegInt,
				dex.OpAddFloat, dex.OpSubFloat, dex.OpMulFloat, dex.OpNegFloat,
				dex.OpIntToFloat, dex.OpFloatToInt, dex.OpCmpFloat,
				dex.OpConstInt, dex.OpConstFloat:
				key = cseKey{op: in.Op, b: in.B, c: in.C, imm: in.Imm, f: in.F}
				pure = true
			}
			if pure {
				if r, ok := avail[key]; ok {
					if r == in.A {
						*in = dex.Insn{Op: dex.OpNop} // value already there
						continue
					}
					*in = dex.Insn{Op: dex.OpMove, A: in.A, B: r}
				}
			}
			if w := hgraph.InsnDef(g.Prog, in); w >= 0 {
				// Invalidate everything reading or producing w.
				for k, r := range avail {
					if r == w || k.b == w || k.c == w {
						delete(avail, k)
					}
				}
				if pure && in.Op != dex.OpMove {
					avail[key] = w
				}
			}
		}
	}
}

// copyProp rewrites uses of moved registers to their sources within a block.
func copyProp(g *hgraph.Graph) {
	var buf [8]int
	for _, b := range g.Blocks {
		src := map[int]int{} // reg -> copy source
		for i := range b.Insns {
			in := &b.Insns[i]
			rewrite := func(r int) int {
				if s, ok := src[r]; ok {
					return s
				}
				return r
			}
			_ = buf
			switch in.Op {
			case dex.OpNop, dex.OpConstInt, dex.OpConstFloat, dex.OpGoto, dex.OpReturnVoid,
				dex.OpNewInstance, dex.OpSLoadInt, dex.OpSLoadFloat, dex.OpSLoadRef:
			case dex.OpMove, dex.OpNegInt, dex.OpNegFloat, dex.OpIntToFloat, dex.OpFloatToInt,
				dex.OpArrayLen, dex.OpNewArrayInt, dex.OpNewArrayFloat, dex.OpNewArrayRef,
				dex.OpFLoadInt, dex.OpFLoadFloat, dex.OpFLoadRef:
				in.B = rewrite(in.B)
			case dex.OpReturn, dex.OpThrow, dex.OpSStoreInt, dex.OpSStoreFloat, dex.OpSStoreRef:
				in.A = rewrite(in.A)
			case dex.OpFStoreInt, dex.OpFStoreFloat, dex.OpFStoreRef:
				in.A = rewrite(in.A)
				in.B = rewrite(in.B)
			case dex.OpAStoreInt, dex.OpAStoreFloat, dex.OpAStoreRef:
				in.A = rewrite(in.A)
				in.B = rewrite(in.B)
				in.C = rewrite(in.C)
			case dex.OpInvokeStatic, dex.OpInvokeVirtual, dex.OpInvokeNative:
				for j := range in.Args {
					in.Args[j] = rewrite(in.Args[j])
				}
			default:
				in.B = rewrite(in.B)
				in.C = rewrite(in.C)
			}
			if w := hgraph.InsnDef(g.Prog, in); w >= 0 {
				delete(src, w)
				for r, s := range src {
					if s == w {
						delete(src, r)
					}
				}
				if in.Op == dex.OpMove {
					if in.B == in.A {
						*in = dex.Insn{Op: dex.OpNop} // self-move
					} else {
						src[in.A] = in.B
					}
				}
			}
		}
	}
}

// deadCode removes side-effect-free instructions whose results are never
// read (the dead_code_elimination pass), using global liveness.
func deadCode(g *hgraph.Graph) {
	liveOut := g.Liveness()
	live := flow.NewSets(1, g.Method.NumRegs)[0]
	var buf [8]int
	for _, b := range g.Blocks {
		copy(live, liveOut[b.ID])
		keep := make([]bool, len(b.Insns))
		for i := len(b.Insns) - 1; i >= 0; i-- {
			in := &b.Insns[i]
			w := hgraph.InsnDef(g.Prog, in)
			dead := w >= 0 && !live.Has(w) && !hgraph.InsnHasSideEffects(in)
			keep[i] = !dead
			if dead {
				continue
			}
			if w >= 0 {
				live.Remove(w)
			}
			for _, r := range hgraph.InsnUses(in, buf[:]) {
				live.Add(r)
			}
		}
		var out []dex.Insn
		for i, k := range keep {
			if k {
				out = append(out, b.Insns[i])
			}
		}
		if len(out) == 0 {
			out = []dex.Insn{{Op: dex.OpNop}}
		}
		b.Insns = out
	}
}
