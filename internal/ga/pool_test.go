package ga

import (
	"math/rand"
	"sync"
	"testing"

	"replayopt/internal/lir"
)

func searchAt(parallelism int, seed int64) *Result {
	opts := DefaultOptions()
	opts.Population = 20
	opts.Generations = 6
	opts.HillClimbBudget = 15
	opts.BaselineAndroidMs = 95
	opts.BaselineO3Ms = 90
	opts.Parallelism = parallelism
	return Search(rand.New(rand.NewSource(seed)), &synthEval{}, opts)
}

// The tentpole guarantee: the same seed yields the same search — best
// genome, halt reason, and the full trace record for record — at any worker
// count.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	ref := searchAt(1, 11)
	for _, par := range []int{4, 8} {
		got := searchAt(par, 11)
		if got.Best.String() != ref.Best.String() {
			t.Errorf("parallelism %d: best genome differs:\n%s\n%s", par, got.Best, ref.Best)
		}
		if got.Halt != ref.Halt {
			t.Errorf("parallelism %d: halt %q != %q", par, got.Halt, ref.Halt)
		}
		if got.Stats != ref.Stats {
			t.Errorf("parallelism %d: stats %+v != %+v", par, got.Stats, ref.Stats)
		}
		if len(got.Trace) != len(ref.Trace) {
			t.Fatalf("parallelism %d: trace length %d != %d", par, len(got.Trace), len(ref.Trace))
		}
		for i := range ref.Trace {
			a, b := got.Trace[i], ref.Trace[i]
			if a.Index != b.Index || a.Generation != b.Generation ||
				a.Genome.String() != b.Genome.String() ||
				a.Eval.Outcome != b.Eval.Outcome || a.Eval.MeanMs != b.Eval.MeanMs ||
				a.Eval.BinaryHash != b.Eval.BinaryHash {
				t.Fatalf("parallelism %d: trace[%d] differs:\n%+v\n%+v", par, i, a, b)
			}
		}
	}
}

// countingEval wraps synthEval and counts Evaluate calls per configuration
// fingerprint; the memo cache must make each count at most 1.
type countingEval struct {
	inner synthEval
	mu    sync.Mutex
	calls map[uint64]int
}

func (e *countingEval) Evaluate(cfg lir.Config) Evaluation {
	fp := cfg.Fingerprint()
	e.mu.Lock()
	if e.calls == nil {
		e.calls = map[uint64]int{}
	}
	e.calls[fp]++
	e.mu.Unlock()
	return e.inner.Evaluate(cfg)
}

func TestCacheEvaluatesEachConfigOnce(t *testing.T) {
	ev := &countingEval{}
	opts := DefaultOptions()
	opts.Population = 20
	opts.Generations = 6
	opts.HillClimbBudget = 20
	res := Search(rand.New(rand.NewSource(4)), ev, opts)

	for fp, n := range ev.calls {
		if n > 1 {
			t.Errorf("config %#x evaluated %d times; memo cache must dedupe", fp, n)
		}
	}
	if res.Stats.Evaluations != len(res.Trace) {
		t.Errorf("stats count %d evaluations, trace has %d", res.Stats.Evaluations, len(res.Trace))
	}
	if res.Stats.Considered != res.Stats.Evaluations+res.Stats.CacheHits {
		t.Errorf("considered %d != evaluations %d + hits %d",
			res.Stats.Considered, res.Stats.Evaluations, res.Stats.CacheHits)
	}
	// Elites re-measured across generations and hill-climb revisits make
	// hits essentially certain at this budget; zero would mean the cache is
	// not wired in.
	if res.Stats.CacheHits == 0 {
		t.Error("search finished with zero cache hits")
	}
	if res.Stats.CacheHits > 0 && res.Stats.SavedReplayMs <= 0 {
		t.Error("cache hits recorded but no saved replay time")
	}
}

// Options.workers resolves 0 to a positive core count and passes explicit
// settings through.
func TestWorkersResolution(t *testing.T) {
	if w := (Options{}).workers(); w < 1 {
		t.Errorf("default workers = %d, want >= 1", w)
	}
	if w := (Options{Parallelism: 3}).workers(); w != 3 {
		t.Errorf("explicit workers = %d, want 3", w)
	}
}
