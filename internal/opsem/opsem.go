// Package opsem is the one definition of the value semantics that the
// repo's tiers share: the interpreter, the machine executor and both
// constant folders (aot's and lir's, which the translation validator reads
// too). The paper keeps a candidate only if its replay matches the
// interpreter's verification map (§3.4), and it swaps JNI math for
// intrinsics whose values must equal the natives' (§3.5), so every tier
// must compute the same value for every op. Each function here is small
// enough for the executor's dispatch loop to inline. The package imports
// nothing from the repo.
//
// Values follow Java's long and double arithmetic, as Dalvik does:
// integers wrap, shift counts are taken modulo 64, division truncates
// toward zero and traps on a zero divisor, and a float-to-int conversion
// maps NaN to 0 and saturates at the int64 bounds.
package opsem

import "math"

// Shl is a << b, the count taken modulo 64.
func Shl(a, b int64) int64 { return a << (uint64(b) & 63) }

// Shr is the arithmetic a >> b, the count taken modulo 64.
func Shr(a, b int64) int64 { return a >> (uint64(b) & 63) }

// Div is a / b truncated toward zero; MinInt64 / -1 wraps to MinInt64. ok
// is false when b is 0: the op traps instead.
func Div(a, b int64) (q int64, ok bool) {
	if b == 0 {
		return 0, false
	}
	return a / b, true
}

// Rem is a % b, with the sign of a; MinInt64 % -1 is 0. ok is false when
// b is 0: the op traps instead.
func Rem(a, b int64) (r int64, ok bool) {
	if b == 0 {
		return 0, false
	}
	return a % b, true
}

// F2I converts f to int64 as Java's (long) cast does: truncation toward
// zero, NaN to 0, and values past either bound (±Inf and 2^63 included) to
// that bound. Go leaves the last two cases to the implementation.
func F2I(f float64) int64 {
	switch {
	case f != f:
		return 0
	case f >= 0x1p63:
		return math.MaxInt64
	case f < -0x1p63:
		return math.MinInt64
	}
	return int64(f)
}

// FCmp is the three-way compare: 1 if a > b, 0 if they are equal, and -1
// otherwise, so an unordered pair (a NaN) compares as less.
func FCmp(a, b float64) int64 {
	switch {
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return -1
}

// Cond is an integer branch condition.
type Cond uint8

// Branch conditions, in dex's if-eq … if-ge order.
const (
	Eq Cond = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// Eval reports whether a c b holds, over signed integers.
func (c Cond) Eval(a, b int64) bool {
	switch c {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

func (c Cond) String() string { return [...]string{"eq", "ne", "lt", "le", "gt", "ge"}[c] }

// Invert returns the condition that holds exactly when c does not.
func (c Cond) Invert() Cond { return [...]Cond{Ne, Eq, Ge, Gt, Le, Lt}[c] }

// Intrinsic names a math native the backend may replace with an inline
// implementation (§3.5).
type Intrinsic uint8

// Intrinsics; NoIntrinsic marks a native that has no inline form.
const (
	NoIntrinsic Intrinsic = iota
	Sqrt
	Sin
	Cos
	Log
	Exp
	Pow
	AbsInt
	AbsFloat
	MinInt
	MaxInt
	Floor
)

// Eval computes k over raw register bits: a float argument or result is
// its IEEE-754 bit pattern, an int one its two's complement. b is read
// only by the two-argument intrinsics (Pow, MinInt, MaxInt). ok is false
// for NoIntrinsic and unknown kinds.
func (k Intrinsic) Eval(a, b uint64) (v uint64, ok bool) {
	f := math.Float64frombits(a)
	switch k {
	case Sqrt:
		f = math.Sqrt(f)
	case Sin:
		f = math.Sin(f)
	case Cos:
		f = math.Cos(f)
	case Log:
		f = math.Log(f)
	case Exp:
		f = math.Exp(f)
	case Pow:
		f = math.Pow(f, math.Float64frombits(b))
	case AbsFloat:
		f = math.Abs(f)
	case Floor:
		f = math.Floor(f)
	case AbsInt:
		return uint64(max(int64(a), -int64(a))), true
	case MinInt:
		return uint64(min(int64(a), int64(b))), true
	case MaxInt:
		return uint64(max(int64(a), int64(b))), true
	default:
		return 0, false
	}
	return math.Float64bits(f), true
}
