// Package interp executes dex bytecode against a runtime process. It is the
// analogue of the ART interpreter: the slowest execution tier, but the one
// whose behavior defines correctness. The replay system uses it to build
// verification maps and virtual-call type profiles (§3.4).
//
// All heap, static, and runtime accesses flow through the process's paged
// address space, so page protections (and therefore online capture) observe
// interpreted execution exactly as they would compiled execution.
package interp

import (
	"errors"
	"fmt"
	"math"

	"replayopt/internal/dex"
	"replayopt/internal/mem"
	"replayopt/internal/opsem"
	"replayopt/internal/rt"
)

// ErrTimeout is returned when execution exceeds the cycle budget.
var ErrTimeout = errors.New("interp: cycle budget exhausted")

// ErrStackOverflow is returned when the call stack exceeds its depth limit.
var ErrStackOverflow = errors.New("interp: call stack overflow")

// ThrownError represents a managed exception reaching the region boundary.
type ThrownError struct {
	Value  uint64
	Method string
}

func (e *ThrownError) Error() string {
	return fmt.Sprintf("interp: uncaught exception %#x in %s", e.Value, e.Method)
}

// maxDepth bounds managed recursion.
const maxDepth = 512

// Sampler receives sampling-profiler callbacks (internal/profile implements
// the paper's 1 ms sample-based profiler on top of this).
type Sampler interface {
	// Sample is called every period cycles with the active call stack,
	// innermost frame last. native is the native currently executing (time
	// attributed to JNI-analogue code), or -1 when in managed code.
	Sample(stack []dex.MethodID, native dex.NativeID)
}

// CallSite identifies a virtual call site for type profiling.
type CallSite struct {
	Method dex.MethodID
	PC     int
}

// Recorder observes execution for verification-map construction and type
// profiling; both hooks are optional.
type Recorder interface {
	// Store is called for every heap or static store with the written
	// address (post-resolution) — the raw material of the verification map.
	Store(addr mem.Addr)
	// Dispatch is called at every virtual call with the receiver's dynamic
	// class — the devirtualization type profile.
	Dispatch(site CallSite, cls dex.ClassID)
}

// AllocRecorder is an optional extension of Recorder: implementations also
// observe every allocation with its (method, pc) site — the same key the
// points-to analysis uses for escape verdicts — and the allocated extent
// [base, base+size). verify.Build uses it to elide stores into allocations
// the analysis proves non-escaping.
type AllocRecorder interface {
	Recorder
	Alloc(site CallSite, base mem.Addr, size int64)
}

// Env is one interpreter activation: a process plus execution policy.
type Env struct {
	Proc    *rt.Process
	Natives []NativeImpl // indexed by dex.NativeID

	// MaxCycles aborts runaway execution with ErrTimeout; 0 means no limit.
	MaxCycles uint64
	// Cycles accumulates the deterministic cost-model time.
	Cycles uint64

	// SamplePeriod > 0 enables the sampling profiler.
	SamplePeriod uint64
	Sampler      Sampler
	nextSample   uint64

	// Recorder, when set, observes stores and virtual dispatches.
	Recorder Recorder

	stack         []dex.MethodID
	currentNative dex.NativeID
}

// NewEnv returns an Env for proc with the standard native bindings.
func NewEnv(proc *rt.Process) *Env {
	return &Env{Proc: proc, Natives: BindNatives(proc.Prog, NewNativeState(0)), currentNative: -1}
}

// ResetClock zeroes the cycle counter and re-arms the sampler (used by the
// machine executor's interpreter bridge).
func (e *Env) ResetClock() {
	e.Cycles = 0
	e.nextSample = e.SamplePeriod
}

func (e *Env) charge(c uint64) error {
	e.Cycles += c
	if e.SamplePeriod > 0 && e.Sampler != nil && e.Cycles >= e.nextSample {
		e.Sampler.Sample(e.stack, e.currentNative)
		for e.nextSample <= e.Cycles {
			e.nextSample += e.SamplePeriod
		}
	}
	if e.MaxCycles > 0 && e.Cycles > e.MaxCycles {
		return ErrTimeout
	}
	return nil
}

func (e *Env) safepoint() error {
	if err := e.charge(costSafepoint); err != nil {
		return err
	}
	if e.Proc.Safepoint() {
		return e.charge(CostGCCollection)
	}
	return nil
}

// Call interprets method id with the given argument registers and returns
// the raw 64-bit result (0 for void).
func (e *Env) Call(id dex.MethodID, args []uint64) (uint64, error) {
	if len(e.stack) >= maxDepth {
		return 0, ErrStackOverflow
	}
	m := e.Proc.Prog.Methods[id]
	if len(args) != m.NumArgs {
		return 0, fmt.Errorf("interp: call to %s with %d args, want %d", m.Name, len(args), m.NumArgs)
	}
	if err := e.charge(costFrame); err != nil {
		return 0, err
	}
	e.stack = append(e.stack, id)
	defer func() { e.stack = e.stack[:len(e.stack)-1] }()

	regs := make([]uint64, m.NumRegs)
	copy(regs, args)
	prog := e.Proc.Prog
	space := e.Proc.Space

	recordStore := func(a mem.Addr) {
		if e.Recorder != nil {
			e.Recorder.Store(a)
		}
	}
	allocRec, _ := e.Recorder.(AllocRecorder)

	// Dispatch fast path: with no sampler attached (every replay evaluation),
	// the per-op charge inlines against a hoisted budget instead of going
	// through charge()'s sampler bookkeeping. MaxCycles == 0 becomes an
	// unreachable ceiling so the loop keeps a single comparison per op.
	sampling := e.SamplePeriod > 0 && e.Sampler != nil
	limit := e.MaxCycles
	if limit == 0 {
		limit = math.MaxUint64
	}

	pc := 0
	for {
		if pc < 0 || pc >= len(m.Code) {
			return 0, fmt.Errorf("interp: pc %d out of range in %s", pc, m.Name)
		}
		in := &m.Code[pc]
		if sampling {
			if err := e.charge(dispatchCost + opCost[in.Op]); err != nil {
				return 0, err
			}
		} else {
			e.Cycles += dispatchCost + opCost[in.Op]
			if e.Cycles > limit {
				return 0, ErrTimeout
			}
		}

		switch in.Op {
		case dex.OpNop:

		case dex.OpConstInt:
			regs[in.A] = uint64(in.Imm)
		case dex.OpConstFloat:
			regs[in.A] = rt.F2U(in.F)
		case dex.OpMove:
			regs[in.A] = regs[in.B]

		case dex.OpAddInt:
			regs[in.A] = uint64(int64(regs[in.B]) + int64(regs[in.C]))
		case dex.OpSubInt:
			regs[in.A] = uint64(int64(regs[in.B]) - int64(regs[in.C]))
		case dex.OpMulInt:
			regs[in.A] = uint64(int64(regs[in.B]) * int64(regs[in.C]))
		case dex.OpDivInt:
			q, ok := opsem.Div(int64(regs[in.B]), int64(regs[in.C]))
			if !ok {
				return 0, &rt.Trap{Kind: rt.TrapDivZero}
			}
			regs[in.A] = uint64(q)
		case dex.OpRemInt:
			r, ok := opsem.Rem(int64(regs[in.B]), int64(regs[in.C]))
			if !ok {
				return 0, &rt.Trap{Kind: rt.TrapDivZero}
			}
			regs[in.A] = uint64(r)
		case dex.OpAndInt:
			regs[in.A] = regs[in.B] & regs[in.C]
		case dex.OpOrInt:
			regs[in.A] = regs[in.B] | regs[in.C]
		case dex.OpXorInt:
			regs[in.A] = regs[in.B] ^ regs[in.C]
		case dex.OpShlInt:
			regs[in.A] = uint64(opsem.Shl(int64(regs[in.B]), int64(regs[in.C])))
		case dex.OpShrInt:
			regs[in.A] = uint64(opsem.Shr(int64(regs[in.B]), int64(regs[in.C])))
		case dex.OpNegInt:
			regs[in.A] = uint64(-int64(regs[in.B]))

		case dex.OpAddFloat:
			regs[in.A] = rt.F2U(rt.U2F(regs[in.B]) + rt.U2F(regs[in.C]))
		case dex.OpSubFloat:
			regs[in.A] = rt.F2U(rt.U2F(regs[in.B]) - rt.U2F(regs[in.C]))
		case dex.OpMulFloat:
			regs[in.A] = rt.F2U(rt.U2F(regs[in.B]) * rt.U2F(regs[in.C]))
		case dex.OpDivFloat:
			regs[in.A] = rt.F2U(rt.U2F(regs[in.B]) / rt.U2F(regs[in.C]))
		case dex.OpNegFloat:
			regs[in.A] = rt.F2U(-rt.U2F(regs[in.B]))

		case dex.OpIntToFloat:
			regs[in.A] = rt.F2U(float64(int64(regs[in.B])))
		case dex.OpFloatToInt:
			regs[in.A] = uint64(opsem.F2I(rt.U2F(regs[in.B])))
		case dex.OpCmpFloat:
			regs[in.A] = uint64(opsem.FCmp(rt.U2F(regs[in.B]), rt.U2F(regs[in.C])))

		case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfLe, dex.OpIfGt, dex.OpIfGe:
			if in.Op.Cond().Eval(int64(regs[in.B]), int64(regs[in.C])) {
				if int(in.Imm) <= pc { // backward edge: safepoint
					if err := e.safepoint(); err != nil {
						return 0, err
					}
				}
				pc = int(in.Imm)
				continue
			}

		case dex.OpGoto:
			if int(in.Imm) <= pc {
				if err := e.safepoint(); err != nil {
					return 0, err
				}
			}
			pc = int(in.Imm)
			continue

		case dex.OpNewArrayInt, dex.OpNewArrayFloat, dex.OpNewArrayRef:
			kind := dex.KindInt
			if in.Op == dex.OpNewArrayFloat {
				kind = dex.KindFloat
			} else if in.Op == dex.OpNewArrayRef {
				kind = dex.KindRef
			}
			n := int64(regs[in.B])
			if err := e.charge(costAllocBase + costAllocPerWord*uint64(max(n, 0))); err != nil {
				return 0, err
			}
			ref, err := e.Proc.NewArray(kind, n)
			if err != nil {
				return 0, err
			}
			if allocRec != nil {
				allocRec.Alloc(CallSite{Method: id, PC: pc}, mem.Addr(ref), 8+8*max(n, 0))
			}
			regs[in.A] = uint64(ref)

		case dex.OpArrayLen:
			n, err := e.Proc.ArrayLen(mem.Addr(regs[in.B]))
			if err != nil {
				return 0, err
			}
			regs[in.A] = uint64(n)

		case dex.OpALoadInt, dex.OpALoadFloat, dex.OpALoadRef:
			v, err := e.Proc.ArrayGet(mem.Addr(regs[in.B]), int64(regs[in.C]))
			if err != nil {
				return 0, err
			}
			regs[in.A] = v
		case dex.OpAStoreInt, dex.OpAStoreFloat, dex.OpAStoreRef:
			a, err := e.Proc.ArrayElemAddr(mem.Addr(regs[in.B]), int64(regs[in.C]))
			if err != nil {
				return 0, err
			}
			if err := space.WriteU64(a, regs[in.A]); err != nil {
				return 0, err
			}
			recordStore(a)

		case dex.OpNewInstance:
			cls := prog.Classes[in.Sym]
			if err := e.charge(costAllocBase + costAllocPerWord*uint64(len(cls.Fields))); err != nil {
				return 0, err
			}
			ref, err := e.Proc.NewObject(dex.ClassID(in.Sym))
			if err != nil {
				return 0, err
			}
			if allocRec != nil {
				allocRec.Alloc(CallSite{Method: id, PC: pc}, mem.Addr(ref), 8+8*int64(len(cls.Fields)))
			}
			regs[in.A] = uint64(ref)

		case dex.OpFLoadInt, dex.OpFLoadFloat, dex.OpFLoadRef:
			v, err := e.Proc.FieldGet(mem.Addr(regs[in.B]), in.Imm)
			if err != nil {
				return 0, err
			}
			regs[in.A] = v
		case dex.OpFStoreInt, dex.OpFStoreFloat, dex.OpFStoreRef:
			a, err := e.Proc.FieldAddr(mem.Addr(regs[in.B]), in.Imm)
			if err != nil {
				return 0, err
			}
			if err := space.WriteU64(a, regs[in.A]); err != nil {
				return 0, err
			}
			recordStore(a)

		case dex.OpSLoadInt, dex.OpSLoadFloat, dex.OpSLoadRef:
			v, err := e.Proc.GlobalGet(in.Imm)
			if err != nil {
				return 0, err
			}
			regs[in.A] = v
		case dex.OpSStoreInt, dex.OpSStoreFloat, dex.OpSStoreRef:
			a := e.Proc.GlobalAddr(in.Imm)
			if err := space.WriteU64(a, regs[in.A]); err != nil {
				return 0, err
			}
			recordStore(a)

		case dex.OpInvokeStatic, dex.OpInvokeVirtual:
			if err := e.safepoint(); err != nil {
				return 0, err
			}
			callArgs := make([]uint64, len(in.Args))
			for i, r := range in.Args {
				callArgs[i] = regs[r]
			}
			target := dex.MethodID(in.Sym)
			if in.Op == dex.OpInvokeVirtual {
				if err := e.charge(costVirtualDispatch); err != nil {
					return 0, err
				}
				cls, err := e.Proc.ObjectClass(mem.Addr(callArgs[0]))
				if err != nil {
					return 0, err
				}
				if e.Recorder != nil {
					e.Recorder.Dispatch(CallSite{Method: id, PC: pc}, cls)
				}
				target = prog.Resolve(target, cls)
			}
			ret, err := e.Call(target, callArgs)
			if err != nil {
				return 0, err
			}
			if prog.Methods[target].Ret != dex.KindVoid {
				regs[in.A] = ret
			}

		case dex.OpInvokeNative:
			if err := e.charge(costNativeBridge); err != nil {
				return 0, err
			}
			callArgs := make([]uint64, len(in.Args))
			for i, r := range in.Args {
				callArgs[i] = regs[r]
			}
			impl := e.Natives[in.Sym]
			if impl == nil {
				return 0, fmt.Errorf("interp: native %s not bound", prog.Natives[in.Sym].Name)
			}
			ret, cost, err := impl(e, callArgs)
			if err != nil {
				return 0, err
			}
			e.currentNative = dex.NativeID(in.Sym)
			cerr := e.charge(cost)
			e.currentNative = -1
			if cerr != nil {
				return 0, cerr
			}
			if prog.Natives[in.Sym].Ret != dex.KindVoid {
				regs[in.A] = ret
			}

		case dex.OpReturn:
			return regs[in.A], nil
		case dex.OpReturnVoid:
			return 0, nil
		case dex.OpThrow:
			return 0, &ThrownError{Value: regs[in.A], Method: m.Name}

		default:
			return 0, fmt.Errorf("interp: unimplemented opcode %s", in.Op)
		}
		pc++
	}
}

// Run executes the program's entry point.
func (e *Env) Run() (uint64, error) {
	return e.Call(e.Proc.Prog.Entry, nil)
}
