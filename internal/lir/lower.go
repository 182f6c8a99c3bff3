package lir

import (
	"fmt"

	"replayopt/internal/machine"
	"replayopt/internal/rt"
)

// LowerOpts control instruction selection (the llc side of the toolchain).
type LowerOpts struct {
	FusedAddressing bool // indexed load/store forms for array accesses
	Machine         machine.LowerOpts
}

// Lower translates SSA to machine code and runs the machine passes.
func Lower(f *Function, opts LowerOpts) (*machine.Fn, error) {
	prunePhis(f) // single-pred phis cannot be lowered; passes may create them
	f.splitCriticalEdges()
	f.Recompute()
	// Most values lower to one instruction, and a block adds at most a jump.
	ncode, maxBlock := len(f.Blocks), 0
	for _, b := range f.Blocks {
		ncode += len(b.Phis) + len(b.Insns)
		maxBlock = max(maxBlock, b.ID)
	}
	lo := &ssaLowerer{
		f: f, opts: opts,
		code:   make([]machine.Insn, 0, ncode),
		vreg:   make([]int, f.nextValueID),
		starts: make([]int, maxBlock+1),
	}
	m := f.Prog.Methods[f.Method]
	lo.nextReg = m.NumArgs
	fn, err := lo.lower()
	if err != nil {
		return nil, err
	}
	if err := machine.Finalize(fn, m.NumArgs, opts.Machine); err != nil {
		return nil, err
	}
	return fn, nil
}

// splitCriticalEdges inserts empty blocks on edges from multi-successor
// blocks to multi-predecessor blocks, preserving phi argument positions.
func (f *Function) splitCriticalEdges() {
	for _, b := range f.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for i, s := range b.Succs {
			if len(s.Preds) >= 2 {
				splitEdge(f, b, i)
			}
		}
	}
}

// ssaLowerer's tables are indexed by Value.ID and Block.ID, which VerifyIR
// holds unique within a function and below the function's ID counters.
type ssaLowerer struct {
	f       *Function
	opts    LowerOpts
	code    []machine.Insn
	vreg    []int // by Value.ID: the value's register plus one, 0 while unassigned
	nextReg int
	starts  []int // by Block.ID: the block's first pc
	fixups  []struct {
		pc     int
		target *Block
	}
}

func (lo *ssaLowerer) reg(v *Value) int {
	if r := lo.vreg[v.ID]; r > 0 {
		return r - 1
	}
	r := int(v.Slot)
	if v.Op != OpParam {
		r = lo.nextReg
		lo.nextReg++
	}
	lo.vreg[v.ID] = r + 1
	return r
}

func (lo *ssaLowerer) temp() int {
	r := lo.nextReg
	lo.nextReg++
	return r
}

func (lo *ssaLowerer) emit(in machine.Insn) int {
	lo.code = append(lo.code, in)
	return len(lo.code) - 1
}

func (lo *ssaLowerer) jumpTo(b *Block) {
	pc := lo.emit(machine.Insn{Op: machine.Jmp})
	lo.fixups = append(lo.fixups, struct {
		pc     int
		target *Block
	}{pc, b})
}

var mALU = map[Op]machine.Op{
	OpAdd: machine.Add, OpSub: machine.Sub, OpMul: machine.Mul,
	OpDiv: machine.Div, OpRem: machine.Rem, OpAnd: machine.And,
	OpOr: machine.Or, OpXor: machine.Xor, OpShl: machine.Shl, OpShr: machine.Shr,
	OpFAdd: machine.FAdd, OpFSub: machine.FSub, OpFMul: machine.FMul,
	OpFDiv: machine.FDiv,
}

var mHint = map[Hint]machine.Hint{
	HintNone: machine.HintNone, HintTaken: machine.HintTaken, HintNotTaken: machine.HintNotTaken,
}

func (lo *ssaLowerer) lower() (*machine.Fn, error) {
	f := lo.f
	// Pre-assign phi registers so edge copies know their destinations.
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			lo.reg(phi)
		}
	}
	lo.coalescePhis()
	for bi, b := range f.Blocks {
		lo.starts[b.ID] = len(lo.code)
		for _, v := range b.Insns {
			term := v.IsTerminator()
			if term {
				// Phi moves for jump successors go before the jump; for
				// branches the edges were split, so successors with phis
				// have single preds handled there.
				if v.Op == OpJump && len(b.Succs) == 1 {
					lo.emitPhiMoves(b, b.Succs[0])
				}
			}
			if err := lo.lowerValue(b, bi, v); err != nil {
				return nil, err
			}
		}
		if b.Term() == nil {
			return nil, fmt.Errorf("lir: block b%d missing terminator in %s", b.ID, f.Name)
		}
	}
	for _, fx := range lo.fixups {
		lo.code[fx.pc].Imm = int64(lo.starts[fx.target.ID])
	}
	return &machine.Fn{Method: f.Method, NumRegs: lo.nextReg, Code: lo.code}, nil
}

// coalescePhis assigns a phi's register to arguments whose copies are
// provably removable, eliminating most per-iteration phi moves (what a real
// allocator's copy coalescing does). An argument a of phi p (along the edge
// from pred B) may share p's register when:
//
//   - a is used only by p (so clobbering a's register cannot break others),
//   - a is defined in B itself (so p's value is not overwritten earlier on
//     some longer path), and
//   - nothing after a's definition in B reads p (the classic lost-copy
//     hazard: writing a into p's register would corrupt those reads).
func (lo *ssaLowerer) coalescePhis() {
	uses := lo.f.UseCounts()
	for _, b := range lo.f.Blocks {
		for _, phi := range b.Phis {
			// If a sibling phi consumes this phi's old value, its edge move
			// reads the register after a coalesced argument would have
			// clobbered it (the swap/lost-copy problem across phis): skip.
			consumedBySibling := false
			for _, q := range b.Phis {
				if q == phi {
					continue
				}
				for _, qa := range q.Args {
					if qa == phi {
						consumedBySibling = true
					}
				}
			}
			if consumedBySibling {
				continue
			}
			preg := lo.reg(phi)
			for i, a := range phi.Args {
				if a.Op == OpPhi || a.Op == OpParam || uses[a.ID] != 1 {
					continue
				}
				if lo.vreg[a.ID] > 0 { // already assigned
					continue
				}
				pred := b.Preds[i]
				if a.Block != pred {
					continue
				}
				hazard := false
				seen := false
				for _, v := range pred.Insns {
					if v == a {
						seen = true
						continue
					}
					if !seen {
						continue
					}
					for _, arg := range v.Args {
						if arg == phi {
							hazard = true
							break
						}
					}
					if hazard {
						break
					}
				}
				if hazard {
					continue
				}
				lo.vreg[a.ID] = preg + 1
			}
		}
	}
}

// emitPhiMoves materializes the parallel copies for the edge from -> to.
func (lo *ssaLowerer) emitPhiMoves(from, to *Block) {
	idx := to.PredIndex(from)
	if idx < 0 || len(to.Phis) == 0 {
		return
	}
	type mv struct{ dst, src int }
	var pending []mv
	for _, phi := range to.Phis {
		src := phi.Args[idx]
		d := lo.reg(phi)
		s := lo.reg(src)
		if d != s {
			pending = append(pending, mv{d, s})
		}
	}
	// Sequentialize the parallel copy: emit moves whose destination is not
	// a pending source; break cycles with a temp.
	for len(pending) > 0 {
		emitted := false
		for i, m := range pending {
			isSrc := false
			for j, o := range pending {
				if j != i && o.src == m.dst {
					isSrc = true
					break
				}
			}
			if !isSrc {
				lo.emit(machine.Insn{Op: machine.Mov, A: m.dst, B: m.src})
				pending = append(pending[:i], pending[i+1:]...)
				emitted = true
				break
			}
		}
		if !emitted {
			// Cycle: rotate through a temp.
			t := lo.temp()
			m := pending[0]
			lo.emit(machine.Insn{Op: machine.Mov, A: t, B: m.src})
			for j := range pending {
				if pending[j].src == m.src {
					pending[j].src = t
				}
			}
		}
	}
}

func (lo *ssaLowerer) lowerValue(b *Block, blockIdx int, v *Value) error {
	f := lo.f
	A := func() int { return lo.reg(v) }
	arg := func(i int) int { return lo.reg(v.Args[i]) }

	switch v.Op {
	case OpParam:
		lo.reg(v) // pinned to its slot

	case OpConstInt:
		lo.emit(machine.Insn{Op: machine.Ldi, A: A(), Imm: v.Imm})
	case OpConstFloat:
		lo.emit(machine.Insn{Op: machine.Ldf, A: A(), F: v.F})
	case OpPhi:
		// Handled by edge moves.

	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv:
		mop := mALU[v.Op]
		if v.NoTrap {
			// rangecheckelim proved the divisor nonzero: select the
			// unguarded machine divide.
			switch v.Op {
			case OpDiv:
				mop = machine.DivU
			case OpRem:
				mop = machine.RemU
			}
		}
		lo.emit(machine.Insn{Op: mop, A: A(), B: arg(0), C: arg(1)})
	case OpNeg:
		lo.emit(machine.Insn{Op: machine.Neg, A: A(), B: arg(0)})
	case OpFNeg:
		lo.emit(machine.Insn{Op: machine.FNeg, A: A(), B: arg(0)})
	case OpI2F:
		lo.emit(machine.Insn{Op: machine.I2F, A: A(), B: arg(0)})
	case OpF2I:
		lo.emit(machine.Insn{Op: machine.F2I, A: A(), B: arg(0)})
	case OpFCmp:
		lo.emit(machine.Insn{Op: machine.FCmp, A: A(), B: arg(0), C: arg(1)})

	case OpArrLen:
		lo.emit(machine.Insn{Op: machine.ArrLen, A: A(), B: arg(0)})
	case OpBoundsCheck:
		lo.emit(machine.Insn{Op: machine.Bound, B: arg(0), C: arg(1)})
	case OpArrLoad:
		lo.arrayAccess(machine.Load, A(), arg(0), arg(1))
	case OpArrStore:
		lo.arrayAccess(machine.Store, arg(2), arg(0), arg(1))
	case OpFieldLoad:
		lo.emit(machine.Insn{Op: machine.Load, A: A(), B: arg(0), C: -1, Disp: 8 + v.Slot*8})
	case OpFieldStore:
		lo.emit(machine.Insn{Op: machine.Store, A: arg(1), B: arg(0), C: -1, Disp: 8 + v.Slot*8})
	case OpStaticLoad:
		t := lo.temp()
		lo.emit(machine.Insn{Op: machine.Ldi, A: t, Imm: int64(rt.StaticsBase) + v.Slot*8})
		lo.emit(machine.Insn{Op: machine.Load, A: A(), B: t, C: -1})
	case OpStaticStore:
		t := lo.temp()
		lo.emit(machine.Insn{Op: machine.Ldi, A: t, Imm: int64(rt.StaticsBase) + v.Slot*8})
		lo.emit(machine.Insn{Op: machine.Store, A: arg(0), B: t, C: -1})
	case OpNewArray:
		lo.emit(machine.Insn{Op: machine.NewArr, A: A(), B: arg(0), Sym: v.Sym})
	case OpNewObject:
		lo.emit(machine.Insn{Op: machine.NewObj, A: A(), Sym: v.Sym})
	case OpClassOf:
		t := lo.temp()
		lo.emit(machine.Insn{Op: machine.Load, A: t, B: arg(0), C: -1})
		lo.emit(machine.Insn{Op: machine.Shr, A: A(), B: t, C: -1, Disp: 8})

	case OpCallStatic, OpCallVirtual, OpCallNative:
		args := make([]int, len(v.Args))
		for i := range v.Args {
			args[i] = arg(i)
		}
		dest := -1
		if v.Type != TVoid {
			dest = A()
		}
		op := machine.Call
		if v.Op == OpCallVirtual {
			op = machine.CallV
		} else if v.Op == OpCallNative {
			op = machine.CallN
		}
		lo.emit(machine.Insn{Op: op, A: dest, Sym: v.Sym, Args: args})
	case OpIntrinsic:
		args := make([]int, len(v.Args))
		for i := range v.Args {
			args[i] = arg(i)
		}
		lo.emit(machine.Insn{Op: machine.Intr, A: A(), Sym: v.Sym, Args: args})

	case OpGCCheck:
		lo.emit(machine.Insn{Op: machine.GCChk})

	case OpBranch:
		pc := lo.emit(machine.Insn{Op: machine.Br, Cond: v.Cond, B: arg(0), C: arg(1), Hint: mHint[v.Hint]})
		lo.fixups = append(lo.fixups, struct {
			pc     int
			target *Block
		}{pc, b.Succs[0]})
		if blockIdx+1 >= len(f.Blocks) || f.Blocks[blockIdx+1] != b.Succs[1] {
			lo.jumpTo(b.Succs[1])
		}
	case OpJump:
		if blockIdx+1 >= len(f.Blocks) || f.Blocks[blockIdx+1] != b.Succs[0] {
			lo.jumpTo(b.Succs[0])
		}
	case OpReturn:
		if len(v.Args) > 0 {
			lo.emit(machine.Insn{Op: machine.Ret, A: arg(0)})
		} else {
			lo.emit(machine.Insn{Op: machine.RetVoid})
		}
	case OpThrow:
		lo.emit(machine.Insn{Op: machine.Throw, A: arg(0)})

	default:
		return fmt.Errorf("lir: cannot lower %s", v.Op)
	}
	return nil
}

func (lo *ssaLowerer) arrayAccess(op machine.Op, val, base, idx int) {
	if lo.opts.FusedAddressing {
		lo.emit(machine.Insn{Op: op, A: val, B: base, C: idx, Disp: 8})
		return
	}
	t1 := lo.temp()
	t2 := lo.temp()
	lo.emit(machine.Insn{Op: machine.Shl, A: t1, B: idx, C: -1, Disp: 3})
	lo.emit(machine.Insn{Op: machine.Add, A: t2, B: base, C: t1})
	lo.emit(machine.Insn{Op: op, A: val, B: t2, C: -1, Disp: 8})
}
