package hgraph

import (
	"replayopt/internal/dex"
	"replayopt/internal/flow"
)

// InsnUses appends the registers read by in.
func InsnUses(in *dex.Insn, buf []int) []int {
	buf = buf[:0]
	switch in.Op {
	case dex.OpNop, dex.OpConstInt, dex.OpConstFloat, dex.OpGoto, dex.OpReturnVoid,
		dex.OpNewInstance, dex.OpSLoadInt, dex.OpSLoadFloat, dex.OpSLoadRef:
	case dex.OpMove, dex.OpNegInt, dex.OpNegFloat, dex.OpIntToFloat, dex.OpFloatToInt,
		dex.OpArrayLen, dex.OpNewArrayInt, dex.OpNewArrayFloat, dex.OpNewArrayRef:
		buf = append(buf, in.B)
	case dex.OpReturn, dex.OpThrow, dex.OpSStoreInt, dex.OpSStoreFloat, dex.OpSStoreRef:
		buf = append(buf, in.A)
	case dex.OpFLoadInt, dex.OpFLoadFloat, dex.OpFLoadRef:
		buf = append(buf, in.B)
	case dex.OpFStoreInt, dex.OpFStoreFloat, dex.OpFStoreRef:
		buf = append(buf, in.A, in.B)
	case dex.OpAStoreInt, dex.OpAStoreFloat, dex.OpAStoreRef:
		buf = append(buf, in.A, in.B, in.C)
	case dex.OpInvokeStatic, dex.OpInvokeVirtual, dex.OpInvokeNative:
		buf = append(buf, in.Args...)
	default:
		// Three-address ops and branches read B and C.
		buf = append(buf, in.B, in.C)
	}
	return buf
}

// InsnDef returns the register written by in, or -1.
func InsnDef(p *dex.Program, in *dex.Insn) int {
	switch in.Op {
	case dex.OpNop, dex.OpGoto, dex.OpReturn, dex.OpReturnVoid, dex.OpThrow,
		dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfLe, dex.OpIfGt, dex.OpIfGe,
		dex.OpAStoreInt, dex.OpAStoreFloat, dex.OpAStoreRef,
		dex.OpFStoreInt, dex.OpFStoreFloat, dex.OpFStoreRef,
		dex.OpSStoreInt, dex.OpSStoreFloat, dex.OpSStoreRef:
		return -1
	case dex.OpInvokeStatic, dex.OpInvokeVirtual:
		if p.Methods[in.Sym].Ret == dex.KindVoid {
			return -1
		}
		return in.A
	case dex.OpInvokeNative:
		if p.Natives[in.Sym].Ret == dex.KindVoid {
			return -1
		}
		return in.A
	default:
		return in.A
	}
}

// InsnHasSideEffects reports whether removing in could change behavior even
// when its result is unused.
func InsnHasSideEffects(in *dex.Insn) bool {
	switch in.Op {
	case dex.OpDivInt, dex.OpRemInt, // may trap
		dex.OpALoadInt, dex.OpALoadFloat, dex.OpALoadRef, // may trap
		dex.OpAStoreInt, dex.OpAStoreFloat, dex.OpAStoreRef,
		dex.OpFLoadInt, dex.OpFLoadFloat, dex.OpFLoadRef,
		dex.OpFStoreInt, dex.OpFStoreFloat, dex.OpFStoreRef,
		dex.OpSStoreInt, dex.OpSStoreFloat, dex.OpSStoreRef,
		dex.OpArrayLen, dex.OpNewArrayInt, dex.OpNewArrayFloat, dex.OpNewArrayRef,
		dex.OpNewInstance,
		dex.OpInvokeStatic, dex.OpInvokeVirtual, dex.OpInvokeNative,
		dex.OpGoto, dex.OpReturn, dex.OpReturnVoid, dex.OpThrow,
		dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfLe, dex.OpIfGt, dex.OpIfGe:
		return true
	}
	return false
}

// Liveness returns the registers live out of each block, indexed by
// Block.ID, as sets over 0..Method.NumRegs-1 (the bound dex.Validate
// enforces).
func (g *Graph) Liveness() []flow.Set {
	n, nreg := len(g.Blocks), g.Method.NumRegs
	succ := flow.NewAdj(n, 2*n)
	use, def := flow.NewSets(n, nreg), flow.NewSets(n, nreg)
	var buf [8]int
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			succ.Add(int32(s.ID))
		}
		succ.End()
		u, d := use[b.ID], def[b.ID]
		for i := range b.Insns {
			in := &b.Insns[i]
			for _, r := range InsnUses(in, buf[:]) {
				if !d.Has(r) {
					u.Add(r)
				}
			}
			if w := InsnDef(g.Prog, in); w >= 0 {
				d.Add(w)
			}
		}
	}
	_, out := flow.Backward(succ, use, def)
	return out
}
