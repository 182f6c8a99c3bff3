package machine

import "replayopt/internal/dex"

// The cycle cost model. All performance numbers in the reproduction are
// ratios of these deterministic costs, so the table below is the "hardware".
// Latency is the extra cost charged when the *next* instruction consumes the
// result (a read-after-write stall the scheduler can hide).

// Per-opcode base cost in cycles.
var opCost = [opCount]uint64{
	Nop: 1, Ldi: 1, Ldf: 1, Mov: 1,
	Add: 1, Sub: 1, Mul: 3, Div: 12, Rem: 12,
	And: 1, Or: 1, Xor: 1, Shl: 1, Shr: 1, Neg: 1,
	FAdd: 3, FSub: 3, FMul: 4, FDiv: 18, FNeg: 1,
	Madd: 4, FMadd: 4,
	I2F: 2, F2I: 2, FCmp: 3,
	Load: 3, Store: 3,
	ArrLen: 3, Bound: 4, NullChk: 1,
	NewArr: 0, NewObj: 0, // priced by the allocator below
	Br: 1, Jmp: 1,
	Call: 0, CallV: 0, CallN: 0, Intr: 0, // priced at call sites
	GCChk: 2, Ret: 2, RetVoid: 2, Throw: 10,
	SpillSt: 3, SpillLd: 3,
	DivU: 10, RemU: 10, // no zero check: two cycles cheaper than Div/Rem
}

// opLatency is the result latency beyond the base cost: a consumer in the
// very next slot stalls for this many extra cycles.
var opLatency = [opCount]uint64{
	Mul: 2, Div: 4, DivU: 4, FAdd: 2, FSub: 2, FMul: 3, FDiv: 6,
	Madd: 2, FMadd: 2, Load: 2, SpillLd: 2, ArrLen: 2, FCmp: 1,
}

// Call-related costs.
const (
	costFrame           = 18 // call frame setup/teardown
	costVirtualDispatch = 14 // header load + vtable chase
	costNativeBridge    = 70 // managed->native transition
	costAllocBase       = 40
	costAllocPerWord    = 1
	// CostGCCollection mirrors the interpreter's collection cost so GC
	// pressure behaves identically across tiers.
	CostGCCollection = 120_000
	// costBranchMispredict is charged when a hinted branch goes the other
	// way; unhinted branches pay costBranchAverage.
	costBranchMispredict = 6
	costBranchAverage    = 1
	// costInterpBridge is the penalty for calling into the interpreter for
	// an uncompiled method.
	costInterpBridge = 40
)

// intrinsicCost prices inlined math intrinsics (§3.5: replacing JNI calls
// with IR implementations avoids the bridge and costs less than the native
// body because it inlines).
var intrinsicCost = [...]uint64{
	dex.IntrinsicSqrt:     15,
	dex.IntrinsicSin:      30,
	dex.IntrinsicCos:      30,
	dex.IntrinsicLog:      30,
	dex.IntrinsicExp:      30,
	dex.IntrinsicPow:      45,
	dex.IntrinsicAbsInt:   2,
	dex.IntrinsicAbsFloat: 2,
	dex.IntrinsicMinInt:   2,
	dex.IntrinsicMaxInt:   2,
	dex.IntrinsicFloor:    4,
}
