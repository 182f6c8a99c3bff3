package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewRegistry().Histogram("h")
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must read as zero")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.Count() != 100 || h.Sum() != 5050 || h.Mean() != 50.5 {
		t.Errorf("count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
	// Nearest rank with a single observation: every quantile is it.
	one := NewRegistry().Histogram("one")
	one.Observe(7)
	if one.Quantile(0.5) != 7 || one.Quantile(0.99) != 7 {
		t.Error("single-observation quantiles must return the observation")
	}
}

// TestConcurrentMetrics hammers every metric type from many goroutines; run
// under -race this is the data-race proof for the parallel evaluation path.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Add(1)
				r.Gauge("g").Add(-1)
				r.Histogram("h").Observe(float64(i))
				r.Tally("t").Inc(fmt.Sprintf("label-%d", w%4))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("gauge settled at %d, want 0", got)
	}
	if max := r.Gauge("g").Max(); max < 1 || max > workers {
		t.Errorf("gauge max = %d, want 1..%d", max, workers)
	}
	if got := r.Histogram("h").Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	var tallySum int64
	for _, n := range r.Tally("t").Counts() {
		tallySum += n
	}
	if tallySum != workers*per {
		t.Errorf("tally total = %d, want %d", tallySum, workers*per)
	}
}

func TestTallyCapOverflow(t *testing.T) {
	tl := NewRegistry().Tally("t")
	for i := 0; i < 200; i++ {
		tl.Inc(fmt.Sprintf("cause-%03d", i))
	}
	counts := tl.Counts()
	if len(counts) != 65 { // 64 distinct + "(other)"
		t.Fatalf("got %d distinct labels, want 65", len(counts))
	}
	if counts[TallyOverflow] != 200-64 {
		t.Errorf("overflow bucket = %d, want %d", counts[TallyOverflow], 200-64)
	}
	// Existing labels keep counting past the cap.
	tl.Inc("cause-000")
	if tl.Get("cause-000") != 2 {
		t.Errorf("existing label stopped counting: %d", tl.Get("cause-000"))
	}
}

func TestSnapshotAndExpositions(t *testing.T) {
	r := NewRegistry()
	r.Counter("ga.evaluations").Add(48)
	r.Gauge("ga.workers_busy").Set(3)
	r.Gauge("ga.workers_busy").Set(0)
	h := r.Histogram("ga.eval_ms")
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	r.Tally("ga.outcomes").Inc("correct")
	r.Tally("ga.outcomes").Inc("correct")

	snap := r.Snapshot()
	for key, want := range map[string]float64{
		"ga.evaluations":      48,
		"ga.workers_busy.now": 0,
		"ga.workers_busy.max": 3,
		"ga.eval_ms.count":    4,
		"ga.eval_ms.sum":      10,
		"ga.eval_ms.p50":      2,
		"ga.eval_ms.p99":      4,
		"ga.outcomes.correct": 2,
	} {
		if snap[key] != want {
			t.Errorf("Snapshot[%q] = %v, want %v", key, snap[key], want)
		}
	}

	var sb strings.Builder
	r.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		"counter   ga.evaluations                   48",
		"gauge     ga.workers_busy                  now=0 max=3",
		"correct=2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText missing %q:\n%s", want, text)
		}
	}
	// Rows come out sorted by name.
	if strings.Index(text, "ga.eval_ms") > strings.Index(text, "ga.evaluations") {
		t.Error("WriteText rows not sorted by name")
	}

	// String() is the expvar exposition: valid JSON matching the snapshot.
	var decoded map[string]float64
	if err := json.Unmarshal([]byte(r.String()), &decoded); err != nil {
		t.Fatalf("String() is not JSON: %v", err)
	}
	if decoded["ga.evaluations"] != 48 {
		t.Errorf("String() snapshot mismatch: %v", decoded["ga.evaluations"])
	}

	// Nil registry expositions.
	var nilReg *Registry
	if nilReg.String() != "{}" {
		t.Error("nil registry String() must be {}")
	}
	if nilReg.Snapshot() != nil {
		t.Error("nil registry Snapshot() must be nil")
	}
	nilReg.WriteText(&sb)
}

// NearestRank is Quantile's rule on a plain slice: unsorted input, q outside
// [0, 1] clamped, the input left as it was.
func TestNearestRank(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{-1, 1}, {0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.99, 5}, {1, 5}, {2, 5},
	} {
		if got := NearestRank(vs, c.q); got != c.want {
			t.Errorf("NearestRank(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vs[0] != 5 || vs[4] != 3 {
		t.Errorf("input reordered: %v", vs)
	}
	if NearestRank(nil, 0.5) != 0 {
		t.Error("empty input must read as zero")
	}
}
