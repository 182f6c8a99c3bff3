// Package machine defines the target machine: a load/store register ISA
// with fused addressing and multiply-add forms, a deterministic cycle cost
// model, and an executor that runs compiled code against a runtime process.
//
// It also implements the machine-level passes the paper controls through llc
// options (§3.5, §4): instruction-selection fusing, linear-scan register
// allocation, and list scheduling.
package machine

import (
	"fmt"
	"sync"

	"replayopt/internal/dex"
	"replayopt/internal/opsem"
)

// Op is a machine opcode.
type Op uint8

// Machine opcodes.
const (
	Nop Op = iota

	Ldi // A <- Imm
	Ldf // A <- F
	Mov // A <- B

	// Integer ALU: A <- B op C; C == -1 means immediate form (literal
	// fusing) with the constant in Imm.
	Add
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Neg // A <- -B

	// Float ALU.
	FAdd
	FSub
	FMul
	FDiv
	FNeg

	// Fused forms.
	Madd  // A <- B*C + D (integer)
	FMadd // A <- B*C + D (float; changes rounding vs FMul+FAdd)

	I2F
	F2I
	FCmp // A <- -1/0/1 comparing floats B, C

	// Memory. Address = rB + rC*8 + Disp; C == -1 means no index (the
	// unfused form computes the address into B first).
	Load
	Store // stores rA

	ArrLen  // A <- length of array at rB (header load)
	Bound   // trap unless 0 <= rC < length of array at rB
	NullChk // trap if rB == 0

	NewArr // A <- new array, elem kind in Sym (dex.Kind), length rB
	NewObj // A <- new instance of class Sym

	Br  // if rB cond rC goto Imm (pc); C == -1 compares against ImmC
	Jmp // goto Imm

	Call    // A <- call Methods[Sym](Args...)
	CallV   // A <- virtual call, declared method Sym, receiver Args[0]
	CallN   // A <- native call Natives[Sym](Args...)
	Intr    // A <- intrinsic (IntrinsicKind in Sym) of Args
	GCChk   // safepoint
	Ret     // return rA
	RetVoid // return
	Throw   // raise managed exception with code rA

	SpillSt // spill slot Imm <- rB
	SpillLd // A <- spill slot Imm

	// Unguarded divide/remainder: the compiler proved the divisor nonzero
	// (lir rangecheckelim sets Value.NoTrap), so the hardware's zero check is
	// skipped and the op is cheaper than Div/Rem. The executor still traps
	// defensively on a zero divisor — that can only mean an unsound range
	// discharge, and trapping matches what the guarded op would have done.
	DivU
	RemU

	opCount
)

var opNames = [...]string{
	Nop: "nop", Ldi: "ldi", Ldf: "ldf", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr", Neg: "neg",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FNeg: "fneg",
	Madd: "madd", FMadd: "fmadd",
	I2F: "i2f", F2I: "f2i", FCmp: "fcmp",
	Load: "load", Store: "store",
	ArrLen: "arrlen", Bound: "bound", NullChk: "nullchk",
	NewArr: "newarr", NewObj: "newobj",
	Br: "br", Jmp: "jmp",
	Call: "call", CallV: "callv", CallN: "calln", Intr: "intr",
	GCChk: "gcchk", Ret: "ret", RetVoid: "retvoid", Throw: "throw",
	SpillSt: "spillst", SpillLd: "spillld",
	DivU: "divu", RemU: "remu",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("mop(%d)", uint8(o))
}

// Cond is a branch condition; internal/opsem defines its values.
type Cond = opsem.Cond

// Branch conditions.
const (
	CondEq = opsem.Eq
	CondNe = opsem.Ne
	CondLt = opsem.Lt
	CondLe = opsem.Le
	CondGt = opsem.Gt
	CondGe = opsem.Ge
)

// Hint is a static branch prediction hint (the paper tunes these from the
// replay type profile).
type Hint uint8

// Branch hints.
const (
	HintNone Hint = iota
	HintTaken
	HintNotTaken
)

// Insn is one machine instruction. Registers are indices into the frame's
// register file (virtual before allocation, physical after).
type Insn struct {
	Op   Op
	A    int // destination (or source for Store/Ret/SpillSt via B)
	B    int
	C    int // -1 selects the immediate/indexless form
	D    int // second addend for Madd/FMadd
	Imm  int64
	F    float64
	Disp int64
	Sym  int
	Cond Cond
	Hint Hint
	Args []int
}

func (in Insn) String() string {
	switch in.Op {
	case Ldi:
		return fmt.Sprintf("ldi r%d, #%d", in.A, in.Imm)
	case Ldf:
		return fmt.Sprintf("ldf r%d, #%g", in.A, in.F)
	case Br:
		if in.C < 0 {
			return fmt.Sprintf("br.%s r%d, #%d, @%d", in.Cond, in.B, in.Disp, in.Imm)
		}
		return fmt.Sprintf("br.%s r%d, r%d, @%d", in.Cond, in.B, in.C, in.Imm)
	case Jmp:
		return fmt.Sprintf("jmp @%d", in.Imm)
	case Load:
		return fmt.Sprintf("load r%d, [r%d + r%d*8 + %d]", in.A, in.B, in.C, in.Disp)
	case Store:
		return fmt.Sprintf("store [r%d + r%d*8 + %d], r%d", in.B, in.C, in.Disp, in.A)
	case Call, CallV, CallN, Intr:
		return fmt.Sprintf("%s r%d, sym%d %v", in.Op, in.A, in.Sym, in.Args)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d (imm=%d)", in.Op, in.A, in.B, in.C, in.Imm)
	}
}

// Fn is one compiled function body.
type Fn struct {
	Method    dex.MethodID
	NumRegs   int
	NumSpills int
	Code      []Insn

	// stall is the read-after-write table: stall[pc] is what Code[pc]
	// pays when it is reached by falling through from Code[pc-1],
	// opLatency of Code[pc-1] if that writes a register Code[pc] reads,
	// else 0. Registers are fixed at compile time, and a taken branch or
	// jump (which writes no register) is the only other way to reach pc,
	// so the stall needs no per-dispatch bookkeeping. It is built once per
	// Fn on first execution.
	stallOnce sync.Once
	stall     []uint8
}

// rawStall is the read-after-write stall in pays when it directly follows
// prev: prev's result latency if in reads the register prev writes.
func rawStall(prev, in *Insn) uint64 {
	d := prev.writes()
	if d < 0 || opLatency[prev.Op] == 0 {
		return 0
	}
	var readBuf [8]int
	for _, r := range in.reads(readBuf[:]) {
		if r == d {
			return opLatency[prev.Op]
		}
	}
	return 0
}

// stallTable returns the Fn's stall table, building it on first use. It
// depends only on the immutable Code slice, so one build serves every
// concurrent executor.
func (f *Fn) stallTable() []uint8 {
	f.stallOnce.Do(func() {
		f.stall = make([]uint8, len(f.Code))
		for pc := 1; pc < len(f.Code); pc++ {
			f.stall[pc] = uint8(rawStall(&f.Code[pc-1], &f.Code[pc]))
		}
	})
	return f.stall
}

// Size returns the modeled binary size in bytes (the GA's tiebreak metric).
func (f *Fn) Size() int {
	n := 0
	for _, in := range f.Code {
		n += 4
		if len(in.Args) > 4 {
			n += 4 * (len(in.Args) - 4)
		}
	}
	return n
}

// Program is a set of compiled functions; methods absent from Fns fall back
// to the interpreter at run time (uncompiled/cold code).
type Program struct {
	Fns map[dex.MethodID]*Fn
}

// NewProgram returns an empty compiled-code image.
func NewProgram() *Program { return &Program{Fns: map[dex.MethodID]*Fn{}} }

// Size sums all function sizes.
func (p *Program) Size() int {
	n := 0
	for _, f := range p.Fns {
		n += f.Size()
	}
	return n
}

// reads returns the registers an instruction reads (into buf).
func (in *Insn) reads(buf []int) []int {
	buf = buf[:0]
	switch in.Op {
	case Nop, Ldi, Ldf, Jmp, GCChk, RetVoid, NewObj, SpillLd:
	case Mov, Neg, FNeg, I2F, F2I, ArrLen, NullChk, NewArr:
		buf = append(buf, in.B)
	case Add, Sub, Mul, Div, Rem, DivU, RemU, And, Or, Xor, Shl, Shr,
		FAdd, FSub, FMul, FDiv, FCmp:
		buf = append(buf, in.B)
		if in.C >= 0 {
			buf = append(buf, in.C)
		}
	case Madd, FMadd:
		buf = append(buf, in.B, in.C, in.D)
	case Load:
		buf = append(buf, in.B)
		if in.C >= 0 {
			buf = append(buf, in.C)
		}
	case Store:
		buf = append(buf, in.A, in.B)
		if in.C >= 0 {
			buf = append(buf, in.C)
		}
	case Bound:
		buf = append(buf, in.B, in.C)
	case Br:
		buf = append(buf, in.B)
		if in.C >= 0 {
			buf = append(buf, in.C)
		}
	case Call, CallV, CallN, Intr:
		buf = append(buf, in.Args...)
	case Ret, Throw:
		buf = append(buf, in.A)
	case SpillSt:
		buf = append(buf, in.B)
	}
	return buf
}

// writes returns the register an instruction defines, or -1.
func (in *Insn) writes() int {
	switch in.Op {
	case Ldi, Ldf, Mov, Add, Sub, Mul, Div, Rem, DivU, RemU, And, Or, Xor, Shl, Shr, Neg,
		FAdd, FSub, FMul, FDiv, FNeg, Madd, FMadd, I2F, F2I, FCmp,
		Load, ArrLen, NewArr, NewObj, SpillLd:
		return in.A
	case Call, CallV, CallN, Intr:
		if in.A >= 0 {
			return in.A
		}
		return -1
	}
	return -1
}

// isTerminator reports whether the instruction ends a basic block.
func (in *Insn) isTerminator() bool {
	switch in.Op {
	case Br, Jmp, Ret, RetVoid, Throw:
		return true
	}
	return false
}

// hasSideEffects reports whether the instruction cannot be reordered freely.
func (in *Insn) hasSideEffects() bool {
	switch in.Op {
	case Load, Store, Call, CallV, CallN, GCChk, NewArr, NewObj,
		Bound, NullChk, ArrLen, Br, Jmp, Ret, RetVoid, Div, Rem,
		DivU, RemU, SpillSt, SpillLd:
		return true
	}
	return false
}
