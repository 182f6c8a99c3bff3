// Package dex defines the register-based managed bytecode the system
// optimizes — the analogue of Dalvik bytecode in the paper (§2). Programs consist
// of classes with virtual dispatch, static functions, typed globals, arrays,
// and native (JNI-analogue) calls.
//
// The interpreter (internal/interp) executes dex directly; the baseline
// compiler (internal/aot) and the LLVM-analogue backend (internal/lir) both
// start from it via the HGraph IR (internal/hgraph).
package dex

import (
	"fmt"

	"replayopt/internal/opsem"
)

// Kind is a static value kind. Registers are untyped 64-bit slots at
// runtime; opcodes declare the kind they operate on, as in Dalvik.
type Kind uint8

// Value kinds.
const (
	KindVoid  Kind = iota
	KindInt        // 64-bit signed integer (also booleans: 0/1)
	KindFloat      // 64-bit IEEE float
	KindRef        // heap reference (address) or null (0)
)

func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindRef:
		return "ref"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Three-address form: A is usually the destination, B and C the
// sources. Imm carries immediates, branch targets (instruction index), field
// slots, and static-global slots. Sym carries method/class/native indices.
const (
	OpNop Op = iota

	OpConstInt   // rA <- Imm
	OpConstFloat // rA <- F
	OpMove       // rA <- rB

	// Integer arithmetic: rA <- rB op rC.
	OpAddInt
	OpSubInt
	OpMulInt
	OpDivInt // traps on rC == 0
	OpRemInt // traps on rC == 0
	OpAndInt
	OpOrInt
	OpXorInt
	OpShlInt
	OpShrInt
	OpNegInt // rA <- -rB

	// Float arithmetic: rA <- rB op rC.
	OpAddFloat
	OpSubFloat
	OpMulFloat
	OpDivFloat
	OpNegFloat // rA <- -rB

	// Conversions.
	OpIntToFloat // rA <- float(rB)
	OpFloatToInt // rA <- int(rB), truncating

	// CmpFloat: rA <- -1/0/+1 comparing rB, rC (NaN compares as -1).
	OpCmpFloat

	// Conditional branches on integer registers: if rB op rC goto Imm.
	OpIfEq
	OpIfNe
	OpIfLt
	OpIfLe
	OpIfGt
	OpIfGe

	OpGoto // goto Imm

	// Arrays. Element kind is part of the opcode.
	OpNewArrayInt   // rA <- new int[rB]; traps on negative length
	OpNewArrayFloat // rA <- new float[rB]
	OpNewArrayRef   // rA <- new ref[rB]
	OpArrayLen      // rA <- len(rB); traps on null
	OpALoadInt      // rA <- rB[rC]; traps on null / out of bounds
	OpALoadFloat
	OpALoadRef
	OpAStoreInt // rB[rC] <- rA
	OpAStoreFloat
	OpAStoreRef

	// Objects. Field slot in Imm (resolved layout slot).
	OpNewInstance // rA <- new classes[Sym]
	OpFLoadInt    // rA <- rB.slot[Imm]; traps on null
	OpFLoadFloat
	OpFLoadRef
	OpFStoreInt // rB.slot[Imm] <- rA
	OpFStoreFloat
	OpFStoreRef

	// Static globals. Slot in Imm.
	OpSLoadInt // rA <- globals[Imm]
	OpSLoadFloat
	OpSLoadRef
	OpSStoreInt // globals[Imm] <- rA
	OpSStoreFloat
	OpSStoreRef

	// Calls. Args lists argument registers; rA receives the result (ignored
	// for void). Sym is a method index for static calls, the *declared*
	// method index for virtual calls (runtime dispatches through the
	// receiver's vtable), and a native index for native calls.
	OpInvokeStatic
	OpInvokeVirtual // receiver is Args[0]
	OpInvokeNative

	OpReturn     // return rA
	OpReturnVoid // return

	OpThrow // throw rA (aborts execution; marks method unreplayable)

	opCount
)

var opNames = [...]string{
	OpNop:      "nop",
	OpConstInt: "const-int", OpConstFloat: "const-float", OpMove: "move",
	OpAddInt: "add-int", OpSubInt: "sub-int", OpMulInt: "mul-int",
	OpDivInt: "div-int", OpRemInt: "rem-int", OpAndInt: "and-int",
	OpOrInt: "or-int", OpXorInt: "xor-int", OpShlInt: "shl-int",
	OpShrInt: "shr-int", OpNegInt: "neg-int",
	OpAddFloat: "add-float", OpSubFloat: "sub-float", OpMulFloat: "mul-float",
	OpDivFloat: "div-float", OpNegFloat: "neg-float",
	OpIntToFloat: "int-to-float", OpFloatToInt: "float-to-int",
	OpCmpFloat: "cmp-float",
	OpIfEq:     "if-eq", OpIfNe: "if-ne", OpIfLt: "if-lt", OpIfLe: "if-le",
	OpIfGt: "if-gt", OpIfGe: "if-ge", OpGoto: "goto",
	OpNewArrayInt: "new-array-int", OpNewArrayFloat: "new-array-float",
	OpNewArrayRef: "new-array-ref", OpArrayLen: "array-length",
	OpALoadInt: "aget-int", OpALoadFloat: "aget-float", OpALoadRef: "aget-ref",
	OpAStoreInt: "aput-int", OpAStoreFloat: "aput-float", OpAStoreRef: "aput-ref",
	OpNewInstance: "new-instance",
	OpFLoadInt:    "iget-int", OpFLoadFloat: "iget-float", OpFLoadRef: "iget-ref",
	OpFStoreInt: "iput-int", OpFStoreFloat: "iput-float", OpFStoreRef: "iput-ref",
	OpSLoadInt: "sget-int", OpSLoadFloat: "sget-float", OpSLoadRef: "sget-ref",
	OpSStoreInt: "sput-int", OpSStoreFloat: "sput-float", OpSStoreRef: "sput-ref",
	OpInvokeStatic: "invoke-static", OpInvokeVirtual: "invoke-virtual",
	OpInvokeNative: "invoke-native",
	OpReturn:       "return", OpReturnVoid: "return-void", OpThrow: "throw",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether o is a conditional branch.
func (o Op) IsBranch() bool { return o >= OpIfEq && o <= OpIfGe }

// Cond is a branch op's condition: if-eq … if-ge map in order onto
// opsem.Eq … opsem.Ge.
func (o Op) Cond() opsem.Cond { return opsem.Cond(o - OpIfEq) }

// IsTerminator reports whether o ends a basic block.
func (o Op) IsTerminator() bool {
	return o.IsBranch() || o == OpGoto || o == OpReturn || o == OpReturnVoid || o == OpThrow
}

// IsInvoke reports whether o is any call.
func (o Op) IsInvoke() bool {
	return o == OpInvokeStatic || o == OpInvokeVirtual || o == OpInvokeNative
}

// Insn is one bytecode instruction.
type Insn struct {
	Op   Op
	A    int     // destination register (or source for stores/return/throw)
	B    int     // source register
	C    int     // source register
	Imm  int64   // immediate / branch target / field or global slot
	F    float64 // float immediate
	Sym  int     // method, class, or native index
	Args []int   // invoke argument registers (receiver first for virtual)
}

func (in Insn) String() string {
	switch {
	case in.Op == OpConstInt:
		return fmt.Sprintf("%s v%d, #%d", in.Op, in.A, in.Imm)
	case in.Op == OpConstFloat:
		return fmt.Sprintf("%s v%d, #%g", in.Op, in.A, in.F)
	case in.Op == OpGoto:
		return fmt.Sprintf("%s @%d", in.Op, in.Imm)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s v%d, v%d, @%d", in.Op, in.B, in.C, in.Imm)
	case in.Op.IsInvoke():
		return fmt.Sprintf("%s v%d, sym%d%v", in.Op, in.A, in.Sym, in.Args)
	default:
		return fmt.Sprintf("%s v%d, v%d, v%d (imm=%d sym=%d)", in.Op, in.A, in.B, in.C, in.Imm, in.Sym)
	}
}

// MethodID indexes Program.Methods.
type MethodID int

// ClassID indexes Program.Classes.
type ClassID int

// NativeID indexes Program.Natives.
type NativeID int

// NoClass marks a method that belongs to no class (a static function).
const NoClass ClassID = -1

// Field is one instance field; its layout slot is its index in the class's
// flattened field list.
type Field struct {
	Name string
	Kind Kind
}

// Class is a reference type with single inheritance and a vtable.
type Class struct {
	Name   string
	Super  ClassID // -1 for roots
	Fields []Field // flattened: inherited fields first, so slots are stable
	// VTable maps virtual slot -> method implementing it for this class.
	VTable  []MethodID
	Methods []MethodID // methods declared on this class
}

// Method is one compiled unit.
type Method struct {
	Name    string // fully qualified, e.g. "FFT.transform" or "main"
	Class   ClassID
	Virtual bool
	VSlot   int // vtable slot if Virtual

	NumRegs int // register file size; args occupy v0..vNumArgs-1
	NumArgs int // for virtual methods Args[0] is the receiver
	Params  []Kind
	Ret     Kind
	Code    []Insn

	// Attributes set by the frontend and refined by analysis
	// (internal/profile): these drive the replayability blocklist (§3.1).
	HasThrow     bool // contains OpThrow (exceptions are blocklisted)
	Uncompilable bool // pathological shape the Android compiler rejects
}

// Global is one static variable.
type Global struct {
	Name string
	Kind Kind
}

// IntrinsicKind identifies natives replaceable by IR-level implementations
// (§3.5's JNI-math-to-intrinsic optimization). internal/opsem defines the
// kinds and their values.
type IntrinsicKind = opsem.Intrinsic

// Intrinsic kinds; IntrinsicNone marks an irreplaceable native.
const (
	IntrinsicNone     = opsem.NoIntrinsic
	IntrinsicSqrt     = opsem.Sqrt
	IntrinsicSin      = opsem.Sin
	IntrinsicCos      = opsem.Cos
	IntrinsicLog      = opsem.Log
	IntrinsicExp      = opsem.Exp
	IntrinsicPow      = opsem.Pow
	IntrinsicAbsInt   = opsem.AbsInt
	IntrinsicAbsFloat = opsem.AbsFloat
	IntrinsicMinInt   = opsem.MinInt
	IntrinsicMaxInt   = opsem.MaxInt
	IntrinsicFloor    = opsem.Floor
)

// Native declares a JNI-analogue function implemented outside the managed
// world. IO and NonDet feed the replayability blocklist.
type Native struct {
	Name      string
	Params    []Kind
	Ret       Kind
	IO        bool // performs input/output — never replayable
	NonDet    bool // clock/PRNG — never replayable
	Intrinsic IntrinsicKind
}

// Program is a complete application.
type Program struct {
	Name    string
	Classes []*Class
	Methods []*Method
	Natives []*Native
	Globals []Global
	Entry   MethodID // "main"

	methodIdx map[string]MethodID
}

// BuildIndex (re)builds the method-name lookup table. Frontends call it once
// after construction.
func (p *Program) BuildIndex() {
	p.methodIdx = make(map[string]MethodID, len(p.Methods))
	for i, m := range p.Methods {
		p.methodIdx[m.Name] = MethodID(i)
	}
}

// MethodByName returns the method named name.
func (p *Program) MethodByName(name string) (MethodID, bool) {
	id, ok := p.methodIdx[name]
	return id, ok
}

// Method returns the method with the given id.
func (p *Program) Method(id MethodID) *Method { return p.Methods[id] }

// Resolve returns the implementation of declared method declID for a
// receiver of dynamic class cid (vtable dispatch).
func (p *Program) Resolve(declID MethodID, cid ClassID) MethodID {
	m := p.Methods[declID]
	if !m.Virtual {
		return declID
	}
	return p.Classes[cid].VTable[m.VSlot]
}
