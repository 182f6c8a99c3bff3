package machine

import (
	"errors"
	"fmt"
	"math"

	"replayopt/internal/dex"
	"replayopt/internal/interp"
	"replayopt/internal/mem"
	"replayopt/internal/opsem"
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

	stall := fn.stallTable()

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
		if err := x.charge(cost, slowAt); err != nil {
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
		case Div, DivU:
			// DivU and RemU are the unguarded forms: the compiler proved the
			// divisor nonzero. A zero there means an unsound range discharge,
			// so they trap like the guarded ops instead of faulting.
			q, ok := opsem.Div(ib(in, regs), ic(in, regs))
			if !ok {
				return 0, &rt.Trap{Kind: rt.TrapDivZero}
			}
			regs[in.A] = uint64(q)
		case Rem, RemU:
			r, ok := opsem.Rem(ib(in, regs), ic(in, regs))
			if !ok {
				return 0, &rt.Trap{Kind: rt.TrapDivZero}
			}
			regs[in.A] = uint64(r)
		case And:
			regs[in.A] = uint64(ib(in, regs) & ic(in, regs))
		case Or:
			regs[in.A] = uint64(ib(in, regs) | ic(in, regs))
		case Xor:
			regs[in.A] = uint64(ib(in, regs) ^ ic(in, regs))
		case Shl:
			regs[in.A] = uint64(opsem.Shl(ib(in, regs), ic(in, regs)))
		case Shr:
			regs[in.A] = uint64(opsem.Shr(ib(in, regs), ic(in, regs)))
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
			regs[in.A] = uint64(opsem.F2I(flb(in, regs)))
		case FCmp:
			regs[in.A] = uint64(opsem.FCmp(flb(in, regs), flc(in, regs)))

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
			take := in.Cond.Eval(ib(in, regs), ic(in, regs))
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
			v, icost, err := intrinsic(in, regs)
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

// intrinsic evaluates an Intr and prices it.
func intrinsic(in *Insn, regs []uint64) (v, cost uint64, err error) {
	k := dex.IntrinsicKind(in.Sym)
	var b uint64
	if len(in.Args) > 1 {
		b = regs[in.Args[1]]
	}
	v, ok := k.Eval(regs[in.Args[0]], b)
	if !ok {
		return 0, 0, fmt.Errorf("machine: unknown intrinsic %d", k)
	}
	return v, intrinsicCost[k], nil
}

// Inlinable operand readers: the B/C/immediate forms of the ALU arms.
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
