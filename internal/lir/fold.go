package lir

import "replayopt/internal/opsem"

// Constant evaluation shared by constfold (pass_scalar.go) and the
// translation validator (internal/lir/tv). The shifts and division come from
// internal/opsem, the definition the interpreter and the executor run, and
// constfold and tv call opsem directly for F2I, FCmp and branch conditions.
// So a folded constant is the value the op computes at run time, and the
// validator folds with exactly the pass's semantics; otherwise a correct
// constfold application would look like a provable miscompile.

// FoldInt evaluates an integer operation over constant operands. Unary ops
// (OpNeg) read a only. Division and remainder by zero do not fold (the
// runtime trap must be preserved). ok=false for non-foldable ops.
func FoldInt(op Op, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return opsem.Shl(a, b), true
	case OpShr:
		return opsem.Shr(a, b), true
	case OpDiv:
		return opsem.Div(a, b)
	case OpRem:
		return opsem.Rem(a, b)
	case OpNeg:
		return -a, true
	}
	return 0, false
}

// FoldFloat evaluates a float operation over constant operands (OpFNeg reads
// a only). ok=false for non-foldable ops.
func FoldFloat(op Op, a, b float64) (float64, bool) {
	switch op {
	case OpFAdd:
		return a + b, true
	case OpFSub:
		return a - b, true
	case OpFMul:
		return a * b, true
	case OpFDiv:
		return a / b, true
	case OpFNeg:
		return -a, true
	}
	return 0, false
}
