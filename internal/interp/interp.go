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
	"fmt"

	"replayopt/internal/dex"
	"replayopt/internal/mem"
	"replayopt/internal/opsem"
	"replayopt/internal/rt"
)

// ThrownError represents a managed exception reaching the region boundary.
type ThrownError struct {
	Value  uint64
	Method string
}

func (e *ThrownError) Error() string {
	return fmt.Sprintf("interp: uncaught exception %#x in %s", e.Value, e.Method)
}

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

	// Clock is the activation's cycle clock. A machine.Exec charges its
	// fallback Env's, so it times compiled code too.
	Clock

	// Recorder, when set, observes stores and virtual dispatches.
	Recorder Recorder

	// frames and args are stack-discipline arenas, as in machine.Exec: each
	// call carves its register file from the top of frames, and each invoke
	// or native call marshals its arguments onto the top of args, which the
	// callee copies into its registers (or the native reads) before anything
	// else is pushed. Call truncates both back to where they stood when it
	// returns. A frame's registers stay valid when a nested call grows the
	// arena: they keep pointing into the old backing array.
	frames, args []uint64
}

// NewEnv returns an Env for proc with the standard native bindings.
func NewEnv(proc *rt.Process) *Env {
	return &Env{Proc: proc, Natives: BindNatives(proc.Prog, NewNativeState(0))}
}

// Call interprets method id with the given argument registers and returns
// the raw 64-bit result (0 for void).
func (e *Env) Call(id dex.MethodID, args []uint64) (uint64, error) {
	m := e.Proc.Prog.Methods[id]
	if len(args) != m.NumArgs {
		return 0, fmt.Errorf("interp: call to %s with %d args, want %d", m.Name, len(args), m.NumArgs)
	}
	slowAt := e.SlowAt()
	if err := e.Charge(costFrame, slowAt); err != nil {
		return 0, err
	}
	if err := e.Push(id); err != nil {
		return 0, err
	}
	// Pop without defer: run has too many returns for the compiler to
	// open-code a deferred call, so a defer here would cost a defer record
	// per call. Nothing recovers a panic out of the interpreter.
	frameBase, argBase := len(e.frames), len(e.args)
	v, err := e.run(id, m, args, slowAt)
	e.frames, e.args = e.frames[:frameBase], e.args[:argBase]
	e.Pop()
	return v, err
}

// pushArgs marshals the registers named by rs onto the args arena and
// returns them with the offset to truncate back to.
func (e *Env) pushArgs(regs []uint64, rs []int) ([]uint64, int) {
	off := len(e.args)
	for _, r := range rs {
		e.args = append(e.args, regs[r])
	}
	return e.args[off:], off
}

func (e *Env) run(id dex.MethodID, m *dex.Method, args []uint64, slowAt uint64) (uint64, error) {
	base := len(e.frames)
	e.frames = append(e.frames, make([]uint64, m.NumRegs)...)
	regs := e.frames[base : base+m.NumRegs : base+m.NumRegs]
	copy(regs, args)
	prog := e.Proc.Prog
	space := e.Proc.Space

	recordStore := func(a mem.Addr) {
		if e.Recorder != nil {
			e.Recorder.Store(a)
		}
	}
	allocRec, _ := e.Recorder.(AllocRecorder)

	pc := 0
	for {
		if pc < 0 || pc >= len(m.Code) {
			return 0, fmt.Errorf("interp: pc %d out of range in %s", pc, m.Name)
		}
		in := &m.Code[pc]
		if err := e.Charge(dispatchCost+opCost[in.Op], slowAt); err != nil {
			return 0, err
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
					if err := e.Safepoint(e.Proc, costSafepoint, slowAt); err != nil {
						return 0, err
					}
				}
				pc = int(in.Imm)
				continue
			}

		case dex.OpGoto:
			if int(in.Imm) <= pc {
				if err := e.Safepoint(e.Proc, costSafepoint, slowAt); err != nil {
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
			if err := e.Charge(costAllocBase+costAllocPerWord*uint64(max(n, 0)), slowAt); err != nil {
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
			if err := e.Charge(costAllocBase+costAllocPerWord*uint64(len(cls.Fields)), slowAt); err != nil {
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
			if err := e.Safepoint(e.Proc, costSafepoint, slowAt); err != nil {
				return 0, err
			}
			callArgs, off := e.pushArgs(regs, in.Args)
			target := dex.MethodID(in.Sym)
			if in.Op == dex.OpInvokeVirtual {
				if err := e.Charge(costVirtualDispatch, slowAt); err != nil {
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
			e.args = e.args[:off]
			if err != nil {
				return 0, err
			}
			if prog.Methods[target].Ret != dex.KindVoid {
				regs[in.A] = ret
			}

		case dex.OpInvokeNative:
			callArgs, off := e.pushArgs(regs, in.Args)
			ret, err := e.CallNative(e.Natives, in.Sym, callArgs, costNativeBridge, slowAt)
			e.args = e.args[:off]
			if err != nil {
				return 0, err
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
