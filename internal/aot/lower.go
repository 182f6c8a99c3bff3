package aot

import (
	"replayopt/internal/dex"
	"replayopt/internal/hgraph"
	"replayopt/internal/machine"
	"replayopt/internal/rt"
)

// lowerOpts control instruction selection for the baseline code generator.
type lowerOpts struct {
	fusedAddressing bool // indexed load/store forms
	intIntrinsics   bool // absI/minI/maxI lower to Intr
}

// lowerer translates a dex CFG to linear machine code with virtual
// registers. dex registers map to vregs of the same index; temporaries are
// allocated above NumRegs.
type lowerer struct {
	g       *hgraph.Graph
	opts    lowerOpts
	code    []machine.Insn
	nextReg int
	starts  []int // machine pc of each block, by Block.ID
	// fixups: (machine pc, target block)
	fixups []fixup
}

type fixup struct {
	pc     int
	target *hgraph.Block
}

func lower(g *hgraph.Graph, opts lowerOpts) *machine.Fn {
	lo := &lowerer{g: g, opts: opts, nextReg: g.Method.NumRegs, starts: make([]int, len(g.Blocks))}
	for i, b := range g.Blocks {
		lo.starts[b.ID] = len(lo.code)
		// A single GC check per loop (§3.5): the runtime requires a
		// safepoint in every loop body; the baseline puts it in the header.
		if g.IsLoopHeader(b) {
			lo.emit(machine.Insn{Op: machine.GCChk})
		}
		lo.lowerBlock(b, i)
	}
	for _, f := range lo.fixups {
		lo.code[f.pc].Imm = int64(lo.starts[f.target.ID])
	}
	return &machine.Fn{Method: methodID(g), NumRegs: lo.nextReg, Code: lo.code}
}

func methodID(g *hgraph.Graph) dex.MethodID {
	for i, m := range g.Prog.Methods {
		if m == g.Method {
			return dex.MethodID(i)
		}
	}
	return -1
}

func (lo *lowerer) emit(in machine.Insn) int {
	lo.code = append(lo.code, in)
	return len(lo.code) - 1
}

func (lo *lowerer) temp() int {
	r := lo.nextReg
	lo.nextReg++
	return r
}

var aluOf = map[dex.Op]machine.Op{
	dex.OpAddInt: machine.Add, dex.OpSubInt: machine.Sub, dex.OpMulInt: machine.Mul,
	dex.OpDivInt: machine.Div, dex.OpRemInt: machine.Rem, dex.OpAndInt: machine.And,
	dex.OpOrInt: machine.Or, dex.OpXorInt: machine.Xor, dex.OpShlInt: machine.Shl,
	dex.OpShrInt:   machine.Shr,
	dex.OpAddFloat: machine.FAdd, dex.OpSubFloat: machine.FSub,
	dex.OpMulFloat: machine.FMul, dex.OpDivFloat: machine.FDiv,
}

func (lo *lowerer) lowerBlock(b *hgraph.Block, blockIdx int) {
	g := lo.g
	for i := range b.Insns {
		in := &b.Insns[i]
		last := i == len(b.Insns)-1
		switch in.Op {
		case dex.OpNop:

		case dex.OpConstInt:
			lo.emit(machine.Insn{Op: machine.Ldi, A: in.A, Imm: in.Imm})
		case dex.OpConstFloat:
			lo.emit(machine.Insn{Op: machine.Ldf, A: in.A, F: in.F})
		case dex.OpMove:
			lo.emit(machine.Insn{Op: machine.Mov, A: in.A, B: in.B})

		case dex.OpAddInt, dex.OpSubInt, dex.OpMulInt, dex.OpDivInt, dex.OpRemInt,
			dex.OpAndInt, dex.OpOrInt, dex.OpXorInt, dex.OpShlInt, dex.OpShrInt,
			dex.OpAddFloat, dex.OpSubFloat, dex.OpMulFloat, dex.OpDivFloat:
			lo.emit(machine.Insn{Op: aluOf[in.Op], A: in.A, B: in.B, C: in.C})
		case dex.OpNegInt:
			lo.emit(machine.Insn{Op: machine.Neg, A: in.A, B: in.B})
		case dex.OpNegFloat:
			lo.emit(machine.Insn{Op: machine.FNeg, A: in.A, B: in.B})
		case dex.OpIntToFloat:
			lo.emit(machine.Insn{Op: machine.I2F, A: in.A, B: in.B})
		case dex.OpFloatToInt:
			lo.emit(machine.Insn{Op: machine.F2I, A: in.A, B: in.B})
		case dex.OpCmpFloat:
			lo.emit(machine.Insn{Op: machine.FCmp, A: in.A, B: in.B, C: in.C})

		case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfLe, dex.OpIfGt, dex.OpIfGe:
			pc := lo.emit(machine.Insn{Op: machine.Br, Cond: in.Op.Cond(), B: in.B, C: in.C})
			lo.fixups = append(lo.fixups, fixup{pc, b.Succs[0]})
			// Fall-through: jump if the next block is not the layout successor.
			if blockIdx+1 >= len(g.Blocks) || g.Blocks[blockIdx+1] != b.Succs[1] {
				jpc := lo.emit(machine.Insn{Op: machine.Jmp})
				lo.fixups = append(lo.fixups, fixup{jpc, b.Succs[1]})
			}
		case dex.OpGoto:
			jpc := lo.emit(machine.Insn{Op: machine.Jmp})
			lo.fixups = append(lo.fixups, fixup{jpc, b.Succs[0]})

		case dex.OpNewArrayInt, dex.OpNewArrayFloat, dex.OpNewArrayRef:
			kind := dex.KindInt
			if in.Op == dex.OpNewArrayFloat {
				kind = dex.KindFloat
			} else if in.Op == dex.OpNewArrayRef {
				kind = dex.KindRef
			}
			lo.emit(machine.Insn{Op: machine.NewArr, A: in.A, B: in.B, Sym: int(kind)})
		case dex.OpArrayLen:
			lo.emit(machine.Insn{Op: machine.ArrLen, A: in.A, B: in.B})

		case dex.OpALoadInt, dex.OpALoadFloat, dex.OpALoadRef:
			lo.emit(machine.Insn{Op: machine.Bound, B: in.B, C: in.C})
			lo.arrayAccess(machine.Load, in.A, in.B, in.C)
		case dex.OpAStoreInt, dex.OpAStoreFloat, dex.OpAStoreRef:
			lo.emit(machine.Insn{Op: machine.Bound, B: in.B, C: in.C})
			lo.arrayAccess(machine.Store, in.A, in.B, in.C)

		case dex.OpNewInstance:
			lo.emit(machine.Insn{Op: machine.NewObj, A: in.A, Sym: in.Sym})
		case dex.OpFLoadInt, dex.OpFLoadFloat, dex.OpFLoadRef:
			// Implicit null check: address 0+disp is unmapped and faults.
			lo.emit(machine.Insn{Op: machine.Load, A: in.A, B: in.B, C: -1, Disp: 8 + in.Imm*8})
		case dex.OpFStoreInt, dex.OpFStoreFloat, dex.OpFStoreRef:
			lo.emit(machine.Insn{Op: machine.Store, A: in.A, B: in.B, C: -1, Disp: 8 + in.Imm*8})

		case dex.OpSLoadInt, dex.OpSLoadFloat, dex.OpSLoadRef:
			t := lo.temp()
			lo.emit(machine.Insn{Op: machine.Ldi, A: t, Imm: int64(rt.StaticsBase) + in.Imm*8})
			lo.emit(machine.Insn{Op: machine.Load, A: in.A, B: t, C: -1})
		case dex.OpSStoreInt, dex.OpSStoreFloat, dex.OpSStoreRef:
			t := lo.temp()
			lo.emit(machine.Insn{Op: machine.Ldi, A: t, Imm: int64(rt.StaticsBase) + in.Imm*8})
			lo.emit(machine.Insn{Op: machine.Store, A: in.A, B: t, C: -1})

		case dex.OpInvokeStatic:
			lo.emitCall(machine.Call, in, g.Prog.Methods[in.Sym].Ret)
		case dex.OpInvokeVirtual:
			lo.emitCall(machine.CallV, in, g.Prog.Methods[in.Sym].Ret)
		case dex.OpInvokeNative:
			nt := g.Prog.Natives[in.Sym]
			if lo.opts.intIntrinsics && isIntIntrinsic(nt.Intrinsic) {
				lo.emit(machine.Insn{Op: machine.Intr, A: in.A, Sym: int(nt.Intrinsic), Args: append([]int(nil), in.Args...)})
				break
			}
			lo.emitCall(machine.CallN, in, nt.Ret)

		case dex.OpReturn:
			lo.emit(machine.Insn{Op: machine.Ret, A: in.A})
		case dex.OpReturnVoid:
			lo.emit(machine.Insn{Op: machine.RetVoid})
		case dex.OpThrow:
			lo.emit(machine.Insn{Op: machine.Throw, A: in.A})
		}
		_ = last
	}
	// Fall-through block (no explicit terminator): jump if layout breaks.
	t := b.Terminator()
	if !t.Op.IsTerminator() && len(b.Succs) == 1 {
		if blockIdx+1 >= len(g.Blocks) || g.Blocks[blockIdx+1] != b.Succs[0] {
			jpc := lo.emit(machine.Insn{Op: machine.Jmp})
			lo.fixups = append(lo.fixups, fixup{jpc, b.Succs[0]})
		}
	}
}

func isIntIntrinsic(k dex.IntrinsicKind) bool {
	switch k {
	case dex.IntrinsicAbsInt, dex.IntrinsicMinInt, dex.IntrinsicMaxInt:
		return true
	}
	return false
}

func (lo *lowerer) arrayAccess(op machine.Op, val, base, idx int) {
	if lo.opts.fusedAddressing {
		lo.emit(machine.Insn{Op: op, A: val, B: base, C: idx, Disp: 8})
		return
	}
	t1 := lo.temp()
	t2 := lo.temp()
	lo.emit(machine.Insn{Op: machine.Shl, A: t1, B: idx, C: -1, Disp: 3})
	lo.emit(machine.Insn{Op: machine.Add, A: t2, B: base, C: t1})
	lo.emit(machine.Insn{Op: op, A: val, B: t2, C: -1, Disp: 8})
}

func (lo *lowerer) emitCall(op machine.Op, in *dex.Insn, ret dex.Kind) {
	dest := in.A
	if ret == dex.KindVoid {
		dest = -1
	}
	lo.emit(machine.Insn{Op: op, A: dest, Sym: in.Sym, Args: append([]int(nil), in.Args...)})
}
