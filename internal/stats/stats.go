// Package stats implements the statistical machinery of §4: median absolute
// deviation outlier removal and Welch's two-sided t-test for comparing
// transformation timings.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Median returns the median (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation.
func MAD(xs []float64) float64 {
	m := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - m)
	}
	return Median(devs)
}

// RemoveOutliersMAD drops points further than k MADs from the median
// (k = 3 is the usual setting; §4 uses MAD-based outlier removal on replay
// timings). When MAD is zero (constant data), the input is returned as is.
func RemoveOutliersMAD(xs []float64, k float64) []float64 {
	if len(xs) < 3 {
		return xs
	}
	m := Median(xs)
	mad := MAD(xs)
	if mad == 0 {
		return xs
	}
	// Scale MAD to be consistent with the standard deviation for normal
	// data (1.4826 factor).
	limit := k * 1.4826 * mad
	out := xs[:0:0]
	for _, x := range xs {
		if math.Abs(x-m) <= limit {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return xs
	}
	return out
}

// TTestResult reports a Welch two-sample t-test.
type TTestResult struct {
	T  float64 // t statistic
	DF float64 // Welch-Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest compares the means of two samples without assuming equal
// variance. Degenerate inputs (n < 2 or zero variance in both) report P = 1
// when the means are equal and P = 0 otherwise.
func WelchTTest(a, b []float64) TTestResult {
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 || (va == 0 && vb == 0) {
		if ma == mb {
			return TTestResult{P: 1}
		}
		return TTestResult{T: math.Inf(sign(ma - mb)), P: 0}
	}
	se := math.Sqrt(va/na + vb/nb)
	t := (ma - mb) / se
	df := math.Pow(va/na+vb/nb, 2) /
		(math.Pow(va/na, 2)/(na-1) + math.Pow(vb/nb, 2)/(nb-1))
	return TTestResult{T: t, DF: df, P: 2 * studentTail(math.Abs(t), df)}
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTail returns P(T > t) for Student's t with df degrees of freedom,
// via the regularized incomplete beta function.
func studentTail(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betacf(a, b, x float64) float64 {
	const maxIter = 200
	const eps = 3e-14
	const fpmin = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// SignificantlyFaster reports whether sample a is faster (smaller mean) than
// sample b at significance level alpha under Welch's t-test — the §4
// "relative merit of two sets of transformations" decision.
func SignificantlyFaster(a, b []float64, alpha float64) bool {
	r := WelchTTest(a, b)
	return Mean(a) < Mean(b) && r.P < alpha
}
