// Package lir is the LLVM analogue of the paper's toolchain (§3.5): an
// SSA-form IR built from HGraph, a large space of optimization passes —
// including deliberately unsafe ones whose miscompilations the verification
// map must catch (§2, Fig. 1) — and a lowering to machine code controlled by
// llc-style options.
package lir

import (
	"fmt"
	"strings"

	"replayopt/internal/dex"
	"replayopt/internal/opsem"
)

// Type is an SSA value type.
type Type uint8

// Value types.
const (
	TVoid Type = iota
	TInt
	TFloat
	TRef
)

func (t Type) String() string {
	return [...]string{"void", "int", "float", "ref"}[t]
}

// Op is an SSA operation.
type Op uint8

// SSA operations.
const (
	OpInvalid Op = iota

	OpParam    // parameter Slot
	OpConstInt // Imm
	OpConstFloat
	OpPhi

	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg

	// Float arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	OpI2F
	OpF2I
	OpFCmp // three-way -1/0/1

	// Memory. Bounds checks are explicit and separable so BCE is a real
	// transformation with real risk.
	//
	// Trap semantics. OpBoundsCheck traps (aborts the execution with an
	// error, observable exactly at that program point) when idx < 0 or
	// idx >= arrlen(arr); OpDiv and OpRem trap when the divisor is zero; and
	// OpThrow always terminates with its code. A trap is an observable
	// behavior: passes may only remove or reorder a trapping op when they can
	// prove it never fires, which is why none of them are IsPure and why the
	// translation validator tracks a function-wide trap-risky op set
	// (tv/equiv.go). The outcome of a check is a pure function of its
	// argument values — array lengths are immutable in this IR — so GVN may
	// dedup an OpBoundsCheck dominated by an identical one (gvnEligible), bce
	// and rangecheckelim may delete checks they prove redundant, and
	// rangecheckelim may mark a Div/Rem NoTrap when the divisor is proven
	// nonzero, but no pass may fold away a possibly-trapping Div/Rem (see
	// FoldInt, which refuses division by zero) or speculate one onto a path
	// that did not execute it.
	OpArrLen      // args: arr
	OpBoundsCheck // args: arr, idx (void)
	OpArrLoad     // args: arr, idx
	OpArrStore    // args: arr, idx, val (void)
	OpFieldLoad   // args: obj; Slot = field
	OpFieldStore  // args: obj, val; Slot = field
	OpStaticLoad  // Slot = global
	OpStaticStore // args: val; Slot = global
	OpNewArray    // args: len; Sym = dex.Kind
	OpNewObject   // Sym = class
	OpClassOf     // args: obj -> class id (for devirtualization guards)

	OpCallStatic  // Sym = method
	OpCallVirtual // Sym = declared method; args[0] = receiver
	OpCallNative  // Sym = native
	OpIntrinsic   // Sym = dex.IntrinsicKind

	OpGCCheck

	// Terminators.
	OpBranch // args: a, b; Cond; Succs[0] taken, Succs[1] fallthrough
	OpJump
	OpReturn // args: optional value
	OpThrow  // args: code

	opCount
)

var opNames = [...]string{
	OpInvalid: "invalid", OpParam: "param", OpConstInt: "const",
	OpConstFloat: "constf", OpPhi: "phi",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr", OpNeg: "neg",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpI2F: "i2f", OpF2I: "f2i", OpFCmp: "fcmp",
	OpArrLen: "arrlen", OpBoundsCheck: "boundscheck", OpArrLoad: "arrload",
	OpArrStore: "arrstore", OpFieldLoad: "fieldload", OpFieldStore: "fieldstore",
	OpStaticLoad: "staticload", OpStaticStore: "staticstore",
	OpNewArray: "newarray", OpNewObject: "newobject", OpClassOf: "classof",
	OpCallStatic: "call", OpCallVirtual: "callvirt", OpCallNative: "callnative",
	OpIntrinsic: "intrinsic", OpGCCheck: "gccheck",
	OpBranch: "branch", OpJump: "jump", OpReturn: "return", OpThrow: "throw",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("lirop(%d)", uint8(o))
}

// Cond is a branch/compare condition over integers; internal/opsem
// defines its values, String and Invert.
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

// Hint is a static branch prediction hint.
type Hint uint8

// Branch hints.
const (
	HintNone Hint = iota
	HintTaken
	HintNotTaken
)

// Value is one SSA instruction; every instruction is a value (void-typed for
// effects).
type Value struct {
	ID    int
	Op    Op
	Type  Type
	Args  []*Value
	Block *Block

	Imm  int64
	F    float64
	Sym  int
	Slot int64
	Cond Cond
	Hint Hint

	// NoTrap marks a Div/Rem whose divisor rangecheckelim proved nonzero;
	// lowering emits the unguarded machine divide for it. Meaningless on
	// other ops. The mark is sound to keep on the value: no pass hoists
	// impure ops, and argument rewrites substitute equal values.
	NoTrap bool
}

func (v *Value) String() string {
	var b strings.Builder
	if v.Type != TVoid {
		fmt.Fprintf(&b, "v%d = ", v.ID)
	}
	b.WriteString(v.Op.String())
	if v.Op == OpBranch {
		fmt.Fprintf(&b, ".%s", v.Cond)
	}
	for _, a := range v.Args {
		fmt.Fprintf(&b, " v%d", a.ID)
	}
	switch v.Op {
	case OpConstInt:
		fmt.Fprintf(&b, " #%d", v.Imm)
	case OpConstFloat:
		fmt.Fprintf(&b, " #%g", v.F)
	case OpParam:
		fmt.Fprintf(&b, " p%d", v.Slot)
	case OpFieldLoad, OpFieldStore, OpStaticLoad, OpStaticStore:
		fmt.Fprintf(&b, " slot%d", v.Slot)
	case OpCallStatic, OpCallVirtual, OpCallNative, OpIntrinsic, OpNewObject, OpNewArray:
		fmt.Fprintf(&b, " sym%d", v.Sym)
	}
	return b.String()
}

// IsPure reports whether the value has no side effects and no trap risk, so
// it can be removed when unused and reordered freely.
func (v *Value) IsPure() bool {
	switch v.Op {
	case OpParam, OpConstInt, OpConstFloat, OpPhi,
		OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpNeg,
		OpFAdd, OpFSub, OpFMul, OpFDiv, OpFNeg,
		OpI2F, OpF2I, OpFCmp, OpClassOf, OpIntrinsic:
		return true
	}
	return false
}

// IsTerminator reports whether v ends a block.
func (v *Value) IsTerminator() bool {
	switch v.Op {
	case OpBranch, OpJump, OpReturn, OpThrow:
		return true
	}
	return false
}

// Block is an SSA basic block. Phis live separately at the head.
type Block struct {
	ID    int
	Phis  []*Value
	Insns []*Value // body; last one is the terminator
	Succs []*Block
	Preds []*Block

	// Analysis caches, valid from one Recompute until the next CFG edit.
	IDom            *Block
	rpo             int
	domPre, domPost int32 // dominator-tree DFS interval (see Dominates)
}

// Term returns the block terminator.
func (b *Block) Term() *Value {
	if len(b.Insns) == 0 {
		return nil
	}
	t := b.Insns[len(b.Insns)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Body returns the non-terminator instructions.
func (b *Block) Body() []*Value {
	if b.Term() != nil {
		return b.Insns[:len(b.Insns)-1]
	}
	return b.Insns
}

// Function is one method in SSA form.
type Function struct {
	Prog   *dex.Program
	Method dex.MethodID
	Name   string
	Blocks []*Block // Blocks[0] is the entry

	nextValueID int
	nextBlockID int
	// stamp is the CFG as the last Recompute left it (see stampCFG).
	stamp []int32
}

// NewValue creates a fresh value.
func (f *Function) NewValue(op Op, t Type, args ...*Value) *Value {
	v := &Value{ID: f.nextValueID, Op: op, Type: t, Args: args}
	f.nextValueID++
	return v
}

// NewBlock creates a fresh block (unattached).
func (f *Function) NewBlock() *Block {
	b := &Block{ID: f.nextBlockID}
	f.nextBlockID++
	return b
}

// NumValues returns the number of values ever created (a code-size proxy and
// the pipeline explosion cap).
func (f *Function) NumValues() int { return f.nextValueID }

// Append places v at the end of b's body, before any terminator.
func (b *Block) Append(v *Value) {
	v.Block = b
	if t := b.Term(); t != nil {
		b.Insns = append(b.Insns[:len(b.Insns)-1], v, t)
	} else {
		b.Insns = append(b.Insns, v)
	}
}

// AppendRaw places v at the very end of b (used for terminators).
func (b *Block) AppendRaw(v *Value) {
	v.Block = b
	b.Insns = append(b.Insns, v)
}

// AddEdge wires a CFG edge.
func AddEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// PredIndex returns p's position in b.Preds (phi argument index).
func (b *Block) PredIndex(p *Block) int {
	for i, x := range b.Preds {
		if x == p {
			return i
		}
	}
	return -1
}

// String renders the function for debugging.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s {\n", f.Name)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:", b.ID)
		if len(b.Preds) > 0 {
			sb.WriteString(" ; preds:")
			for _, p := range b.Preds {
				fmt.Fprintf(&sb, " b%d", p.ID)
			}
		}
		sb.WriteByte('\n')
		for _, p := range b.Phis {
			fmt.Fprintf(&sb, "  %s\n", p)
		}
		for _, v := range b.Insns {
			fmt.Fprintf(&sb, "  %s\n", v)
		}
		if t := b.Term(); t != nil && len(b.Succs) > 0 {
			sb.WriteString("  ; succs:")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.ID)
			}
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// ReplaceUses substitutes old with new in every argument list of f.
func (f *Function) ReplaceUses(old, new *Value) {
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			for i, a := range v.Args {
				if a == old {
					v.Args[i] = new
				}
			}
		}
		for _, v := range b.Insns {
			for i, a := range v.Args {
				if a == old {
					v.Args[i] = new
				}
			}
		}
	}
}

// UseCounts computes how many times each value is used as an argument,
// indexed by Value.ID (dense per function).
func (f *Function) UseCounts() []int32 {
	uses := make([]int32, f.nextValueID)
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			for _, a := range v.Args {
				uses[a.ID]++
			}
		}
		for _, v := range b.Insns {
			for _, a := range v.Args {
				uses[a.ID]++
			}
		}
	}
	return uses
}
