package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanMedianBasics(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 2 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even-length median wrong")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty inputs not handled")
	}
}

func TestMADOutlierRemoval(t *testing.T) {
	xs := []float64{10, 11, 9, 10, 10.5, 9.5, 100} // one gross outlier
	out := RemoveOutliersMAD(xs, 3)
	for _, x := range out {
		if x == 100 {
			t.Fatal("outlier survived")
		}
	}
	if len(out) != len(xs)-1 {
		t.Errorf("removed %d points, want 1", len(xs)-len(out))
	}
	// Constant data must pass through.
	c := []float64{5, 5, 5, 5}
	if len(RemoveOutliersMAD(c, 3)) != 4 {
		t.Error("constant data mangled")
	}
}

func TestWelchTTestSeparatesClearMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = 10 + rng.NormFloat64()
		b[i] = 14 + rng.NormFloat64()
	}
	r := WelchTTest(a, b)
	if r.P > 1e-6 {
		t.Errorf("clearly different means, p = %v", r.P)
	}
	if !SignificantlyFaster(a, b, 0.05) {
		t.Error("a not reported faster than b")
	}
	if SignificantlyFaster(b, a, 0.05) {
		t.Error("b reported faster than a")
	}
}

func TestWelchTTestSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rejections := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		a := make([]float64, 20)
		b := make([]float64, 20)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = rng.NormFloat64()
		}
		if WelchTTest(a, b).P < 0.05 {
			rejections++
		}
	}
	// False positive rate should be near alpha = 5%.
	if rejections < 1 || rejections > trials/5 {
		t.Errorf("rejected %d/%d identical distributions", rejections, trials)
	}
}

func TestStudentTailSanity(t *testing.T) {
	// For df -> large, t = 1.96 should give a ~2.5% tail.
	tail := studentTail(1.96, 1000)
	if math.Abs(tail-0.025) > 0.005 {
		t.Errorf("tail(1.96, 1000) = %v, want ~0.025", tail)
	}
	if studentTail(0, 10) != 0.5 {
		t.Errorf("tail(0) = %v, want 0.5", studentTail(0, 10))
	}
}

// Property: outlier removal never empties the sample and never removes the
// median itself.
func TestQuickMADKeepsMedian(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		out := RemoveOutliersMAD(xs, 3)
		if len(out) == 0 {
			return false
		}
		med := Median(xs)
		for _, x := range out {
			if x == med {
				return true
			}
		}
		// The exact median value may not be a sample point (even n); accept
		// if anything within one MAD of it survived.
		for _, x := range out {
			if math.Abs(x-med) <= 1.4826*3*MAD(xs)+1e-9 {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the Welch t statistic is antisymmetric and P symmetric under
// swapping the samples.
func TestWelchSymmetryProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		m := 4 + rng.Intn(12)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = 10 + rng.NormFloat64()
		}
		for i := range b {
			b[i] = 10.5 + rng.NormFloat64()*2
		}
		ab := WelchTTest(a, b)
		ba := WelchTTest(b, a)
		return math.Abs(ab.T+ba.T) < 1e-9 && math.Abs(ab.P-ba.P) < 1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: P is always in [0,1] and shrinks as the true separation grows.
func TestWelchPRangeAndMonotonicTrend(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]float64, 10)
		for i := range base {
			base[i] = 100 + rng.NormFloat64()
		}
		prev := 1.0
		violations := 0
		for _, shift := range []float64{0.2, 1, 5, 25} {
			b := make([]float64, 10)
			for i := range b {
				b[i] = 100 + shift + rng.NormFloat64()
			}
			res := WelchTTest(base, b)
			if res.P < 0 || res.P > 1 {
				return false
			}
			if res.P > prev {
				violations++ // noise may flip one step; a trend must hold
			}
			prev = res.P
		}
		return violations <= 1
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MAD removal never removes more than half the samples and the
// survivors are a subsequence of the input.
func TestMADRemovalProperties(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 50 + rng.NormFloat64()*3
			if rng.Float64() < 0.2 {
				xs[i] *= 1 + rng.Float64()*10 // inject outliers
			}
		}
		clean := RemoveOutliersMAD(xs, 3)
		if len(clean) < (n+1)/2 {
			return false
		}
		// Subsequence check.
		j := 0
		for _, v := range xs {
			if j < len(clean) && clean[j] == v {
				j++
			}
		}
		return j == len(clean)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SignificantlyFaster is a strict partial order's asymmetric
// relation — a cannot be significantly faster than b AND b than a.
func TestSignificantlyFasterAsymmetry(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 10)
		b := make([]float64, 10)
		for i := range a {
			a[i] = 10 + rng.NormFloat64()
			b[i] = 10 + rng.NormFloat64()*1.5
		}
		return !(SignificantlyFaster(a, b, 0.05) && SignificantlyFaster(b, a, 0.05))
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
