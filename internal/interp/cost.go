package interp

import "replayopt/internal/dex"

// Cycle costs for interpreted execution. The interpreter pays a dispatch
// overhead on every bytecode on top of the operation's intrinsic cost, which
// is why interpreted replays are much slower than compiled ones (§3.4 "While
// this is slow, it happens offline").
const (
	dispatchCost = 6 // fetch/decode overhead per bytecode

	// costSafepoint is the per-check cost at backward branches and calls.
	costSafepoint = 2
	// costAllocBase/PerWord price heap allocation.
	costAllocBase    = 40
	costAllocPerWord = 1
	// costFrame prices call frame setup/teardown.
	costFrame = 24
	// costVirtualDispatch is the extra vtable-lookup cost of virtual calls.
	costVirtualDispatch = 14
	// costNativeBridge is the JNI-analogue transition cost.
	costNativeBridge = 70
)

// opCost is the intrinsic cost of each bytecode, excluding dispatch. It
// spans every dex.Op value, so an opcode outside the instruction set costs
// nothing and reaches Call's "unimplemented opcode" error.
var opCost = [256]uint64{
	dex.OpNop:        1,
	dex.OpConstInt:   1,
	dex.OpConstFloat: 1,
	dex.OpMove:       1,

	dex.OpAddInt: 1, dex.OpSubInt: 1, dex.OpMulInt: 3,
	dex.OpDivInt: 12, dex.OpRemInt: 12,
	dex.OpAndInt: 1, dex.OpOrInt: 1, dex.OpXorInt: 1,
	dex.OpShlInt: 1, dex.OpShrInt: 1, dex.OpNegInt: 1,

	dex.OpAddFloat: 3, dex.OpSubFloat: 3, dex.OpMulFloat: 4,
	dex.OpDivFloat: 18, dex.OpNegFloat: 1,

	dex.OpIntToFloat: 2, dex.OpFloatToInt: 2, dex.OpCmpFloat: 3,

	dex.OpIfEq: 2, dex.OpIfNe: 2, dex.OpIfLt: 2,
	dex.OpIfLe: 2, dex.OpIfGt: 2, dex.OpIfGe: 2,
	dex.OpGoto: 1,

	dex.OpNewArrayInt: 0, dex.OpNewArrayFloat: 0, dex.OpNewArrayRef: 0, // priced by alloc
	dex.OpArrayLen: 3,
	dex.OpALoadInt: 5, dex.OpALoadFloat: 5, dex.OpALoadRef: 5,
	dex.OpAStoreInt: 5, dex.OpAStoreFloat: 5, dex.OpAStoreRef: 5,

	dex.OpNewInstance: 0,
	dex.OpFLoadInt:    4, dex.OpFLoadFloat: 4, dex.OpFLoadRef: 4,
	dex.OpFStoreInt: 4, dex.OpFStoreFloat: 4, dex.OpFStoreRef: 4,
	dex.OpSLoadInt: 3, dex.OpSLoadFloat: 3, dex.OpSLoadRef: 3,
	dex.OpSStoreInt: 3, dex.OpSStoreFloat: 3, dex.OpSStoreRef: 3,

	dex.OpInvokeStatic: 0, dex.OpInvokeVirtual: 0, dex.OpInvokeNative: 0, // priced at call sites
	dex.OpReturn: 1, dex.OpReturnVoid: 1, dex.OpThrow: 10,
}

// nativeIntrinsicCost prices the body of each math native the backend may
// replace with an intrinsic (the bridge is charged separately).
var nativeIntrinsicCost = [...]uint64{
	dex.IntrinsicSqrt:     20,
	dex.IntrinsicSin:      40,
	dex.IntrinsicCos:      40,
	dex.IntrinsicLog:      40,
	dex.IntrinsicExp:      40,
	dex.IntrinsicPow:      60,
	dex.IntrinsicAbsInt:   4,
	dex.IntrinsicAbsFloat: 4,
	dex.IntrinsicMinInt:   4,
	dex.IntrinsicMaxInt:   4,
	dex.IntrinsicFloor:    8,
}
