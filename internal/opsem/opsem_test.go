package opsem

import (
	"math"
	"testing"
)

const (
	minI = math.MinInt64
	maxI = math.MaxInt64
)

var (
	nan    = math.NaN()
	inf    = math.Inf(1)
	negZ   = math.Copysign(0, -1)
	two63  = 0x1p63
	below  = math.Nextafter(0x1p63, 0) // the largest float below 2^63
	beyond = math.Nextafter(-0x1p63, math.Inf(-1))
)

func TestShifts(t *testing.T) {
	for _, c := range []struct{ a, n, shl, shr int64 }{
		{0, 0, 0, 0},
		{1, 0, 1, 1},
		{1, 1, 2, 0},
		{-1, 1, -2, -1},
		{1, 63, minI, 0},
		{1, 64, 1, 1}, // counts are taken modulo 64
		{1, 65, 2, 0},
		{-8, 130, -32, -2},
		{1, -1, minI, 0}, // -1 mod 64 is 63
		{-1, -1, minI, -1},
		{5, minI, 5, 5},
		{5, maxI, minI, 0},
		{minI, 1, 0, minI / 2},
		{maxI, 1, -2, maxI / 2},
		{minI, 63, 0, -1},
		{maxI, 63, minI, 0},
	} {
		if got := Shl(c.a, c.n); got != c.shl {
			t.Errorf("Shl(%d, %d) = %d, want %d", c.a, c.n, got, c.shl)
		}
		if got := Shr(c.a, c.n); got != c.shr {
			t.Errorf("Shr(%d, %d) = %d, want %d", c.a, c.n, got, c.shr)
		}
	}
}

func TestDivRem(t *testing.T) {
	for _, c := range []struct {
		a, b, q, r int64
		ok         bool
	}{
		{7, 2, 3, 1, true},
		{-7, 2, -3, -1, true}, // truncation toward zero; the remainder has a's sign
		{7, -2, -3, 1, true},
		{-7, -2, 3, -1, true},
		{0, -1, 0, 0, true},
		{0, 0, 0, 0, false},
		{1, 0, 0, 0, false},
		{-1, 0, 0, 0, false},
		{minI, 0, 0, 0, false},
		{maxI, 0, 0, 0, false},
		{minI, -1, minI, 0, true}, // wraps, no trap
		{minI, 1, minI, 0, true},
		{maxI, -1, -maxI, 0, true},
		{maxI, minI, 0, maxI, true},
		{minI, maxI, -1, -1, true},
		{minI, minI, 1, 0, true},
	} {
		q, qok := Div(c.a, c.b)
		r, rok := Rem(c.a, c.b)
		if qok != c.ok || rok != c.ok {
			t.Errorf("Div/Rem(%d, %d) ok = %v/%v, want %v", c.a, c.b, qok, rok, c.ok)
			continue
		}
		if c.ok && (q != c.q || r != c.r) {
			t.Errorf("Div/Rem(%d, %d) = %d, %d, want %d, %d", c.a, c.b, q, r, c.q, c.r)
		}
	}
}

// TestF2I pins Java's (long) cast, which Go leaves to the implementation
// for NaN and out-of-range values.
func TestF2I(t *testing.T) {
	for _, c := range []struct {
		f    float64
		want int64
	}{
		{0, 0},
		{negZ, 0},
		{1, 1},
		{-1, -1},
		{1.99, 1},
		{-1.99, -1},
		{0.5, 0},
		{-0.5, 0},
		{nan, 0},
		{-nan, 0},
		{inf, maxI},
		{-inf, minI},
		{two63, maxI},
		{-two63, minI},
		{below, 1<<63 - 1024},
		{-below, -(1<<63 - 1024)},
		{beyond, minI},
		{float64(maxI), maxI}, // rounds to 2^63
		{float64(minI), minI},
		{1e300, maxI},
		{-1e300, minI},
		{math.SmallestNonzeroFloat64, 0},
	} {
		if got := F2I(c.f); got != c.want {
			t.Errorf("F2I(%g) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestFCmp(t *testing.T) {
	for _, c := range []struct {
		a, b float64
		want int64
	}{
		{1, 0, 1},
		{0, 1, -1},
		{0, 0, 0},
		{0, negZ, 0},
		{negZ, 0, 0},
		{-1, 1, -1},
		{nan, 0, -1}, // unordered compares as less, either way round
		{0, nan, -1},
		{nan, nan, -1},
		{inf, inf, 0},
		{-inf, inf, -1},
		{inf, math.MaxFloat64, 1},
		{-inf, -math.MaxFloat64, -1},
		{two63, float64(maxI), 0},
	} {
		if got := FCmp(c.a, c.b); got != c.want {
			t.Errorf("FCmp(%g, %g) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCond(t *testing.T) {
	pairs := [][2]int64{{0, 0}, {-1, 1}, {1, -1}, {minI, maxI}, {maxI, minI}, {minI, minI}, {maxI, maxI}, {0, minI}}
	// want[c][i]: c over Eq…Ge, i over pairs.
	want := [6][8]bool{
		{true, false, false, false, false, true, true, false},  // eq
		{false, true, true, true, true, false, false, true},    // ne
		{false, true, false, true, false, false, false, false}, // lt
		{true, true, false, true, false, true, true, false},    // le
		{false, false, true, false, true, false, false, true},  // gt
		{true, false, true, false, true, true, true, true},     // ge
	}
	names := []string{"eq", "ne", "lt", "le", "gt", "ge"}
	for c := Eq; c <= Ge; c++ {
		if c.String() != names[c] {
			t.Errorf("Cond(%d).String() = %q, want %q", c, c.String(), names[c])
		}
		for i, p := range pairs {
			if got := c.Eval(p[0], p[1]); got != want[c][i] {
				t.Errorf("%s.Eval(%d, %d) = %v, want %v", c, p[0], p[1], got, want[c][i])
			}
			if c.Invert().Eval(p[0], p[1]) == c.Eval(p[0], p[1]) {
				t.Errorf("%s.Invert() = %s agrees with %s on (%d, %d)", c, c.Invert(), c, p[0], p[1])
			}
		}
	}
	if got := Cond(Ge+1).Eval(0, 0); got {
		t.Error("an unknown condition holds")
	}
}

// same reports bit-identical floats, any NaN matching any NaN.
func same(a, b float64) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestIntrinsics(t *testing.T) {
	fb, ib := math.Float64bits, func(i int64) uint64 { return uint64(i) }
	floats := []struct {
		k       Intrinsic
		a, b, v float64
	}{
		{Sqrt, 4, 0, 2},
		{Sqrt, -1, 0, nan},
		{Sqrt, negZ, 0, negZ},
		{Sqrt, inf, 0, inf},
		{Sqrt, nan, 0, nan},
		{Sin, 0, 0, 0},
		{Sin, inf, 0, nan},
		{Cos, 0, 0, 1},
		{Cos, nan, 0, nan},
		{Log, 1, 0, 0},
		{Log, 0, 0, -inf},
		{Log, -1, 0, nan},
		{Exp, 0, 0, 1},
		{Exp, -inf, 0, 0},
		{Exp, 1000, 0, inf},
		{Pow, 2, 10, 1024},
		{Pow, 0, -1, inf},
		{Pow, nan, 0, 1},
		{Pow, -8, 1.0 / 3, nan},
		{AbsFloat, negZ, 0, 0},
		{AbsFloat, -inf, 0, inf},
		{AbsFloat, -2.5, 0, 2.5},
		{Floor, -0.5, 0, -1},
		{Floor, negZ, 0, negZ},
		{Floor, 2.5, 0, 2},
		{Floor, two63, 0, two63},
		{Floor, nan, 0, nan},
	}
	for _, c := range floats {
		v, ok := c.k.Eval(fb(c.a), fb(c.b))
		if !ok || !same(math.Float64frombits(v), c.v) {
			t.Errorf("intrinsic %d(%g, %g) = %g, %v, want %g", c.k, c.a, c.b, math.Float64frombits(v), ok, c.v)
		}
	}
	ints := []struct {
		k       Intrinsic
		a, b, v int64
	}{
		{AbsInt, 0, 0, 0},
		{AbsInt, -1, 0, 1},
		{AbsInt, maxI, 0, maxI},
		{AbsInt, -maxI, 0, maxI},
		{AbsInt, minI, 0, minI}, // wraps, as Java's Math.abs
		{MinInt, minI, maxI, minI},
		{MinInt, 1, -1, -1},
		{MinInt, 0, 0, 0},
		{MaxInt, minI, maxI, maxI},
		{MaxInt, 1, -1, 1},
		{MaxInt, -1, -1, -1},
	}
	for _, c := range ints {
		v, ok := c.k.Eval(ib(c.a), ib(c.b))
		if !ok || int64(v) != c.v {
			t.Errorf("intrinsic %d(%d, %d) = %d, %v, want %d", c.k, c.a, c.b, int64(v), ok, c.v)
		}
	}
	for _, k := range []Intrinsic{NoIntrinsic, Floor + 1, 255} {
		if _, ok := k.Eval(0, 0); ok {
			t.Errorf("intrinsic %d evaluated", k)
		}
	}
}
