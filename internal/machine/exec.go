package machine

import (
	"errors"
	"fmt"
	"math"

	"replayopt/internal/dex"
	"replayopt/internal/interp"
	"replayopt/internal/mem"
	"replayopt/internal/rt"
)

// ErrTimeout is returned when compiled execution exceeds the cycle budget.
var ErrTimeout = errors.New("machine: cycle budget exhausted")

// ErrStackOverflow is returned on runaway managed recursion.
var ErrStackOverflow = errors.New("machine: call stack overflow")

const maxDepth = 512

// CaptureHook intercepts the entry of one method (the hot region): the
// runtime's injected capture check (§3.2 step 1). Wrap is called once with
// the region's entry arguments and a continuation that executes the region;
// it decides whether to snapshot around it.
type CaptureHook struct {
	Method dex.MethodID
	Wrap   func(args []uint64, call func() (uint64, error)) (uint64, error)
	fired  bool
}

// Rearm allows the hook to fire again at the region's next entry (used when
// a capture was postponed, e.g. because a GC was imminent).
func (h *CaptureHook) Rearm() { h.fired = false }

// Exec runs compiled code against a process. Methods missing from Code fall
// back to the interpreter (sharing the same process and native state), which
// is how cold and uncompilable code executes in a mixed-mode runtime.
type Exec struct {
	Proc *rt.Process
	Code *Program
	// Fallback interprets uncompiled callees; it must share Proc.
	Fallback *interp.Env

	Cycles    uint64
	MaxCycles uint64

	// SamplePeriod > 0 enables the sampling profiler (same interface as the
	// interpreter's, so profiles cover compiled execution).
	SamplePeriod uint64
	Sampler      interp.Sampler
	nextSample   uint64

	// Hook, when set, intercepts the first call to Hook.Method.
	Hook *CaptureHook

	// NoFuse disables superinstruction dispatch (the escape hatch for
	// cycle-identity tests and debugging); fused and unfused execution
	// produce identical results and identical success cycle counts.
	NoFuse bool

	stack         []dex.MethodID
	currentNative dex.NativeID

	// argStack is a stack-discipline arena for marshalling managed call
	// arguments: a callee copies its args into fresh registers on entry, so
	// the marshalled slice is dead the moment the nested Call begins and can
	// be reused by the next sibling call instead of allocating. Disabled
	// while a capture hook is installed — the hook's Wrap may retain its
	// args beyond the call.
	argStack []uint64

	// frameStack is the same idea applied to frame-local state: each run()
	// frame carves its register file and spill slots out of one growable
	// arena instead of allocating per call. A frame's slices stay valid even
	// if a nested call grows the arena (they keep pointing into the old
	// backing array), and the wrapper truncates back to the frame's base on
	// return, so reuse follows call-stack discipline exactly.
	frameStack []uint64

	// fns is the dense method-dispatch table derived from Code.Fns: method
	// IDs index Prog.Methods, so a slice answers the per-call "is this
	// method compiled?" question without a map probe.
	fns []*Fn

	depth int
}

// NewExec wires an executor with an interpreter fallback over the same
// process and native state.
func NewExec(proc *rt.Process, code *Program) *Exec {
	fns := make([]*Fn, len(proc.Prog.Methods))
	//detlint:allow map-range — keyed writes into a dense table; order irrelevant
	for id, fn := range code.Fns {
		if int(id) < len(fns) {
			fns[id] = fn
		}
	}
	return &Exec{Proc: proc, Code: code, Fallback: interp.NewEnv(proc), currentNative: -1, fns: fns}
}

// charge adds c cycles. It is small enough to inline into runFrame's
// per-op paths: below slowAt (see chargeFrom) it only adds, and from slowAt
// on chargeSlow samples and checks the budget exactly, so any slowAt at or
// below the true threshold gives the same cycles, samples and errors.
func (x *Exec) charge(c, slowAt uint64) error {
	x.Cycles += c
	if x.Cycles >= slowAt {
		return x.chargeSlow()
	}
	return nil
}

// chargeFrom returns the cycle count from which charge must call
// chargeSlow: 0 with a sampler attached, since the sampler sees every
// charge; one past MaxCycles with a budget; and never otherwise.
func (x *Exec) chargeFrom() uint64 {
	if x.SamplePeriod > 0 && x.Sampler != nil {
		return 0
	}
	if x.MaxCycles > 0 {
		return x.MaxCycles + 1 // MaxUint64 wraps to 0: every charge is checked
	}
	return math.MaxUint64
}

func (x *Exec) chargeSlow() error {
	if x.SamplePeriod > 0 && x.Sampler != nil && x.Cycles >= x.nextSample {
		x.Sampler.Sample(x.stack, x.currentNative)
		for x.nextSample <= x.Cycles {
			x.nextSample += x.SamplePeriod
		}
	}
	if x.MaxCycles > 0 && x.Cycles > x.MaxCycles {
		return ErrTimeout
	}
	return nil
}

// Call executes method id with args, using compiled code when available.
func (x *Exec) Call(id dex.MethodID, args []uint64) (uint64, error) {
	if h := x.Hook; h != nil && h.Method == id && !h.fired {
		h.fired = true
		return h.Wrap(args, func() (uint64, error) { return x.callNoHook(id, args) })
	}
	return x.callNoHook(id, args)
}

func (x *Exec) callNoHook(id dex.MethodID, args []uint64) (uint64, error) {
	var fn *Fn
	if int(id) < len(x.fns) {
		fn = x.fns[id]
	} else {
		fn = x.Code.Fns[id]
	}
	if fn == nil {
		// Interpreter bridge: synchronize cycle clocks across the
		// transition so mixed-mode time adds up.
		if err := x.charge(costInterpBridge, x.chargeFrom()); err != nil {
			return 0, err
		}
		x.Fallback.ResetClock()
		x.Fallback.MaxCycles = 0
		if x.MaxCycles > 0 {
			x.Fallback.MaxCycles = x.MaxCycles - x.Cycles
		}
		x.Fallback.SamplePeriod = x.SamplePeriod
		x.Fallback.Sampler = x.Sampler
		ret, err := x.Fallback.Call(id, args)
		cerr := x.charge(x.Fallback.Cycles, x.chargeFrom())
		if err != nil {
			return 0, err
		}
		if cerr != nil {
			return 0, cerr
		}
		return ret, nil
	}
	return x.run(fn, args)
}

func (x *Exec) run(fn *Fn, args []uint64) (uint64, error) {
	// Push/pop without defer: nothing in the machine recovers runtime
	// panics (they are fatal), so the explicit pop around runFrame is
	// equivalent and keeps defer machinery out of the per-call path.
	if x.depth >= maxDepth {
		return 0, ErrStackOverflow
	}
	x.depth++
	x.stack = append(x.stack, fn.Method)
	frameBase := len(x.frameStack)
	v, err := x.runFrame(fn, args)
	x.frameStack = x.frameStack[:frameBase]
	x.depth--
	x.stack = x.stack[:len(x.stack)-1]
	return v, err
}

func (x *Exec) runFrame(fn *Fn, args []uint64) (uint64, error) {
	slowAt := x.chargeFrom()
	if err := x.charge(costFrame, slowAt); err != nil {
		return 0, err
	}

	// Carve this frame's registers and spill slots out of the arena; the
	// append-of-make form extends in place (zeroing only the new tail)
	// without allocating a temporary.
	frameBase := len(x.frameStack)
	need := fn.NumRegs + fn.NumSpills
	x.frameStack = append(x.frameStack, make([]uint64, need)...)
	frame := x.frameStack[frameBase:]
	regs := frame[:fn.NumRegs:fn.NumRegs]
	copy(regs, args)
	var spills []uint64
	if fn.NumSpills > 0 {
		spills = frame[fn.NumRegs:need:need]
	}
	prog := x.Proc.Prog
	space := x.Proc.Space

	// Fast dispatch: with no sampler attached, the per-op budget check
	// inlines against a hoisted limit (MaxCycles == 0 becomes an unreachable
	// ceiling) and fusible adjacent op pairs execute as superinstructions
	// from the Fn's fuse table. Both transformations preserve the cycle
	// model exactly on successful runs; only the Cycles value of a run that
	// times out mid-pair can differ, and failed runs never contribute a
	// measurement.
	fast := x.SamplePeriod == 0 || x.Sampler == nil
	limit := x.MaxCycles
	if limit == 0 {
		limit = math.MaxUint64
	}
	fuse, stall := fn.tables()
	if !fast || x.NoFuse {
		fuse = nil
	}

	// jumped is set by a taken Br or a Jmp: the instruction it lands on
	// pays no read-after-write stall, whatever precedes it in Code.
	jumped := false
	pc := 0
	for {
		if pc < 0 || pc >= len(fn.Code) {
			return 0, fmt.Errorf("machine: pc %d out of range in %s", pc, prog.Methods[fn.Method].Name)
		}
		in := &fn.Code[pc]
		cost := opCost[in.Op]
		if !jumped {
			cost += uint64(stall[pc])
		}
		jumped = false
		if fast {
			if fuse != nil && fuse[pc] != 0 {
				// Superinstruction: charge both ops at once (the table holds
				// the second op's cost plus its stall against the first),
				// then evaluate back to back.
				x.Cycles += cost + uint64(fuse[pc])
				if x.Cycles > limit {
					return 0, ErrTimeout
				}
				evalSimple(in, regs)
				evalSimple(&fn.Code[pc+1], regs)
				pc += 2
				continue
			}
			x.Cycles += cost
			if x.Cycles > limit {
				return 0, ErrTimeout
			}
		} else if err := x.charge(cost, slowAt); err != nil {
			return 0, err
		}

		switch in.Op {
		case Nop:
		case Ldi:
			regs[in.A] = uint64(in.Imm)
		case Ldf:
			regs[in.A] = rt.F2U(in.F)
		case Mov:
			regs[in.A] = regs[in.B]

		case Add:
			regs[in.A] = uint64(ib(in, regs) + ic(in, regs))
		case Sub:
			regs[in.A] = uint64(ib(in, regs) - ic(in, regs))
		case Mul:
			regs[in.A] = uint64(ib(in, regs) * ic(in, regs))
		case Div:
			c := ic(in, regs)
			if c == 0 {
				return 0, &rt.Trap{Kind: rt.TrapDivZero}
			}
			regs[in.A] = uint64(ib(in, regs) / c)
		case Rem:
			c := ic(in, regs)
			if c == 0 {
				return 0, &rt.Trap{Kind: rt.TrapDivZero}
			}
			regs[in.A] = uint64(ib(in, regs) % c)
		case DivU, RemU:
			// Unguarded forms: the compiler proved the divisor nonzero. A
			// zero here means an unsound range discharge; trap defensively
			// (identical outcome to the guarded op) instead of faulting.
			c := ic(in, regs)
			if c == 0 {
				return 0, &rt.Trap{Kind: rt.TrapDivZero}
			}
			if in.Op == DivU {
				regs[in.A] = uint64(ib(in, regs) / c)
			} else {
				regs[in.A] = uint64(ib(in, regs) % c)
			}
		case And:
			regs[in.A] = uint64(ib(in, regs) & ic(in, regs))
		case Or:
			regs[in.A] = uint64(ib(in, regs) | ic(in, regs))
		case Xor:
			regs[in.A] = uint64(ib(in, regs) ^ ic(in, regs))
		case Shl:
			regs[in.A] = uint64(ib(in, regs) << (uint64(ic(in, regs)) & 63))
		case Shr:
			regs[in.A] = uint64(ib(in, regs) >> (uint64(ic(in, regs)) & 63))
		case Neg:
			regs[in.A] = uint64(-ib(in, regs))

		case FAdd:
			regs[in.A] = rt.F2U(flb(in, regs) + flc(in, regs))
		case FSub:
			regs[in.A] = rt.F2U(flb(in, regs) - flc(in, regs))
		case FMul:
			regs[in.A] = rt.F2U(flb(in, regs) * flc(in, regs))
		case FDiv:
			regs[in.A] = rt.F2U(flb(in, regs) / flc(in, regs))
		case FNeg:
			regs[in.A] = rt.F2U(-flb(in, regs))

		case Madd:
			regs[in.A] = uint64(int64(regs[in.B])*int64(regs[in.C]) + int64(regs[in.D]))
		case FMadd:
			// Fused: single rounding, like a hardware FMA.
			regs[in.A] = rt.F2U(math.FMA(rt.U2F(regs[in.B]), rt.U2F(regs[in.C]), rt.U2F(regs[in.D])))

		case I2F:
			regs[in.A] = rt.F2U(float64(ib(in, regs)))
		case F2I:
			regs[in.A] = uint64(int64(flb(in, regs)))
		case FCmp:
			a, b := flb(in, regs), flc(in, regs)
			switch {
			case a > b:
				regs[in.A] = 1
			case a == b:
				regs[in.A] = 0
			default:
				regs[in.A] = ^uint64(0)
			}

		case Load:
			addr := mem.Addr(regs[in.B]) + mem.Addr(in.Disp)
			if in.C >= 0 {
				addr += mem.Addr(int64(regs[in.C]) * 8)
			}
			if v, ok := space.TryReadU64(addr); ok {
				regs[in.A] = v
			} else {
				v, err := space.ReadU64(addr)
				if err != nil {
					return 0, err
				}
				regs[in.A] = v
			}
		case Store:
			addr := mem.Addr(regs[in.B]) + mem.Addr(in.Disp)
			if in.C >= 0 {
				addr += mem.Addr(int64(regs[in.C]) * 8)
			}
			if !space.TryWriteU64(addr, regs[in.A]) {
				if err := space.WriteU64(addr, regs[in.A]); err != nil {
					return 0, err
				}
			}

		case ArrLen:
			n, err := x.Proc.ArrayLen(mem.Addr(regs[in.B]))
			if err != nil {
				return 0, err
			}
			regs[in.A] = uint64(n)
		case Bound:
			n, err := x.Proc.ArrayLen(mem.Addr(regs[in.B]))
			if err != nil {
				return 0, err
			}
			idx := int64(regs[in.C])
			if idx < 0 || idx >= n {
				return 0, &rt.Trap{Kind: rt.TrapBounds, Addr: mem.Addr(regs[in.B])}
			}
		case NullChk:
			if regs[in.B] == 0 {
				return 0, &rt.Trap{Kind: rt.TrapNull}
			}

		case NewArr:
			n := int64(regs[in.B])
			if err := x.charge(costAllocBase+costAllocPerWord*uint64(max(n, 0)), slowAt); err != nil {
				return 0, err
			}
			ref, err := x.Proc.NewArray(dex.Kind(in.Sym), n)
			if err != nil {
				return 0, err
			}
			regs[in.A] = uint64(ref)
		case NewObj:
			cls := prog.Classes[in.Sym]
			if err := x.charge(costAllocBase+costAllocPerWord*uint64(len(cls.Fields)), slowAt); err != nil {
				return 0, err
			}
			ref, err := x.Proc.NewObject(dex.ClassID(in.Sym))
			if err != nil {
				return 0, err
			}
			regs[in.A] = uint64(ref)

		case Br:
			b, c := ib(in, regs), ic(in, regs)
			var take bool
			switch in.Cond {
			case CondEq:
				take = b == c
			case CondNe:
				take = b != c
			case CondLt:
				take = b < c
			case CondLe:
				take = b <= c
			case CondGt:
				take = b > c
			case CondGe:
				take = b >= c
			}
			// Prediction cost.
			switch in.Hint {
			case HintNone:
				if err := x.charge(costBranchAverage, slowAt); err != nil {
					return 0, err
				}
			case HintTaken:
				if !take {
					if err := x.charge(costBranchMispredict, slowAt); err != nil {
						return 0, err
					}
				}
			case HintNotTaken:
				if take {
					if err := x.charge(costBranchMispredict, slowAt); err != nil {
						return 0, err
					}
				}
			}
			if take {
				pc = int(in.Imm)
				jumped = true
				continue
			}
		case Jmp:
			pc = int(in.Imm)
			jumped = true
			continue

		case Call, CallV:
			if err := x.charge(2, slowAt); err != nil { // safepoint check at calls
				return 0, err
			}
			if x.Proc.Safepoint() {
				if err := x.charge(CostGCCollection, slowAt); err != nil {
					return 0, err
				}
			}
			var callArgs []uint64
			argOff := -1
			if x.Hook == nil {
				argOff = len(x.argStack)
				for _, r := range in.Args {
					x.argStack = append(x.argStack, regs[r])
				}
				callArgs = x.argStack[argOff:]
			} else {
				callArgs = make([]uint64, len(in.Args))
				for i, r := range in.Args {
					callArgs[i] = regs[r]
				}
			}
			target := dex.MethodID(in.Sym)
			if in.Op == CallV {
				if err := x.charge(costVirtualDispatch, slowAt); err != nil {
					return 0, err
				}
				cls, err := x.Proc.ObjectClass(mem.Addr(callArgs[0]))
				if err != nil {
					return 0, err
				}
				target = prog.Resolve(target, cls)
			}
			ret, err := x.Call(target, callArgs)
			if argOff >= 0 {
				x.argStack = x.argStack[:argOff]
			}
			if err != nil {
				return 0, err
			}
			if in.A >= 0 {
				regs[in.A] = ret
			}

		case CallN:
			if err := x.charge(costNativeBridge, slowAt); err != nil {
				return 0, err
			}
			callArgs := make([]uint64, len(in.Args))
			for i, r := range in.Args {
				callArgs[i] = regs[r]
			}
			impl := x.Fallback.Natives[in.Sym]
			if impl == nil {
				return 0, fmt.Errorf("machine: native %s not bound", prog.Natives[in.Sym].Name)
			}
			ret, ncost, err := impl(x.Fallback, callArgs)
			if err != nil {
				return 0, err
			}
			x.currentNative = dex.NativeID(in.Sym)
			cerr := x.charge(ncost, slowAt)
			x.currentNative = -1
			if cerr != nil {
				return 0, cerr
			}
			if in.A >= 0 {
				regs[in.A] = ret
			}

		case Intr:
			v, icost, err := x.intrinsic(dex.IntrinsicKind(in.Sym), in.Args, regs)
			if err != nil {
				return 0, err
			}
			if err := x.charge(icost, slowAt); err != nil {
				return 0, err
			}
			regs[in.A] = v

		case GCChk:
			if x.Proc.Safepoint() {
				if err := x.charge(CostGCCollection, slowAt); err != nil {
					return 0, err
				}
			}

		case Ret:
			return regs[in.A], nil
		case RetVoid:
			return 0, nil
		case Throw:
			return 0, &interp.ThrownError{Value: regs[in.A], Method: prog.Methods[fn.Method].Name}

		case SpillSt:
			spills[in.Imm] = regs[in.B]
		case SpillLd:
			regs[in.A] = spills[in.Imm]

		default:
			return 0, fmt.Errorf("machine: unimplemented opcode %s", in.Op)
		}
		pc++
	}
}

func (x *Exec) intrinsic(kind dex.IntrinsicKind, args []int, regs []uint64) (uint64, uint64, error) {
	cost := intrinsicCost[int(kind)]
	a0 := func() float64 { return rt.U2F(regs[args[0]]) }
	i0 := func() int64 { return int64(regs[args[0]]) }
	switch kind {
	case dex.IntrinsicSqrt:
		return rt.F2U(math.Sqrt(a0())), cost, nil
	case dex.IntrinsicSin:
		return rt.F2U(math.Sin(a0())), cost, nil
	case dex.IntrinsicCos:
		return rt.F2U(math.Cos(a0())), cost, nil
	case dex.IntrinsicLog:
		return rt.F2U(math.Log(a0())), cost, nil
	case dex.IntrinsicExp:
		return rt.F2U(math.Exp(a0())), cost, nil
	case dex.IntrinsicPow:
		return rt.F2U(math.Pow(a0(), rt.U2F(regs[args[1]]))), cost, nil
	case dex.IntrinsicAbsFloat:
		return rt.F2U(math.Abs(a0())), cost, nil
	case dex.IntrinsicFloor:
		return rt.F2U(math.Floor(a0())), cost, nil
	case dex.IntrinsicAbsInt:
		v := i0()
		if v < 0 {
			v = -v
		}
		return uint64(v), cost, nil
	case dex.IntrinsicMinInt:
		a, b := i0(), int64(regs[args[1]])
		if a < b {
			return uint64(a), cost, nil
		}
		return uint64(b), cost, nil
	case dex.IntrinsicMaxInt:
		a, b := i0(), int64(regs[args[1]])
		if a > b {
			return uint64(a), cost, nil
		}
		return uint64(b), cost, nil
	}
	return 0, 0, fmt.Errorf("machine: unknown intrinsic %d", kind)
}

// Inlinable operand readers (the B/C/immediate forms shared by the ALU
// arms); kept as free functions so both the main switch and evalSimple use
// the same definitions.
func ib(in *Insn, regs []uint64) int64 { return int64(regs[in.B]) }

func ic(in *Insn, regs []uint64) int64 {
	if in.C < 0 {
		return in.Disp
	}
	return int64(regs[in.C])
}

func flb(in *Insn, regs []uint64) float64 { return rt.U2F(regs[in.B]) }

func flc(in *Insn, regs []uint64) float64 {
	if in.C < 0 {
		return in.F
	}
	return rt.U2F(regs[in.C])
}

// evalSimple executes one fusible op. Each arm mirrors the corresponding
// main-switch arm exactly; fusible() guarantees no other op reaches here.
func evalSimple(in *Insn, regs []uint64) {
	switch in.Op {
	case Ldi:
		regs[in.A] = uint64(in.Imm)
	case Ldf:
		regs[in.A] = rt.F2U(in.F)
	case Mov:
		regs[in.A] = regs[in.B]
	case Add:
		regs[in.A] = uint64(ib(in, regs) + ic(in, regs))
	case Sub:
		regs[in.A] = uint64(ib(in, regs) - ic(in, regs))
	case Mul:
		regs[in.A] = uint64(ib(in, regs) * ic(in, regs))
	case And:
		regs[in.A] = uint64(ib(in, regs) & ic(in, regs))
	case Or:
		regs[in.A] = uint64(ib(in, regs) | ic(in, regs))
	case Xor:
		regs[in.A] = uint64(ib(in, regs) ^ ic(in, regs))
	case Shl:
		regs[in.A] = uint64(ib(in, regs) << (uint64(ic(in, regs)) & 63))
	case Shr:
		regs[in.A] = uint64(ib(in, regs) >> (uint64(ic(in, regs)) & 63))
	case Neg:
		regs[in.A] = uint64(-ib(in, regs))
	case FAdd:
		regs[in.A] = rt.F2U(flb(in, regs) + flc(in, regs))
	case FSub:
		regs[in.A] = rt.F2U(flb(in, regs) - flc(in, regs))
	case FMul:
		regs[in.A] = rt.F2U(flb(in, regs) * flc(in, regs))
	case FNeg:
		regs[in.A] = rt.F2U(-flb(in, regs))
	case Madd:
		regs[in.A] = uint64(int64(regs[in.B])*int64(regs[in.C]) + int64(regs[in.D]))
	case FMadd:
		regs[in.A] = rt.F2U(math.FMA(rt.U2F(regs[in.B]), rt.U2F(regs[in.C]), rt.U2F(regs[in.D])))
	case I2F:
		regs[in.A] = rt.F2U(float64(ib(in, regs)))
	case F2I:
		regs[in.A] = uint64(int64(flb(in, regs)))
	case FCmp:
		a, b := flb(in, regs), flc(in, regs)
		switch {
		case a > b:
			regs[in.A] = 1
		case a == b:
			regs[in.A] = 0
		default:
			regs[in.A] = ^uint64(0)
		}
	}
}
