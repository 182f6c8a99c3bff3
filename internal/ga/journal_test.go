package ga

import (
	"math/rand"
	"sync"
	"testing"
)

// memJournal is an in-memory Journal: Lookup serves only what was loaded at
// construction (like a file journal read at boot), Record collects what this
// run appended.
type memJournal struct {
	mu       sync.RWMutex
	loaded   map[uint64]Evaluation
	appended map[uint64]Evaluation
}

func newMemJournal(loaded map[uint64]Evaluation) *memJournal {
	if loaded == nil {
		loaded = map[uint64]Evaluation{}
	}
	return &memJournal{loaded: loaded, appended: map[uint64]Evaluation{}}
}

func (m *memJournal) Lookup(fp uint64) (Evaluation, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ev, ok := m.loaded[fp]
	return ev, ok
}

func (m *memJournal) Record(fp uint64, ev Evaluation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.loaded[fp]; ok {
		return
	}
	m.appended[fp] = ev
}

// contents merges loaded and appended entries — what a file journal would
// hold after this run.
func (m *memJournal) contents() map[uint64]Evaluation {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint64]Evaluation, len(m.loaded)+len(m.appended))
	//detlint:allow map-range — keyed copy into a fresh map; order irrelevant
	for k, v := range m.loaded {
		out[k] = v
	}
	//detlint:allow map-range — keyed copy into a fresh map; order irrelevant
	for k, v := range m.appended {
		out[k] = v
	}
	return out
}

func journalOpts(par int) Options {
	opts := DefaultOptions()
	opts.Population = 12
	opts.Generations = 4
	opts.HillClimbBudget = 6
	opts.Parallelism = par
	return opts
}

// TestJournalResumeByteIdenticalTrace kills a search mid-flight (cooperative
// interrupt after a fixed number of batches), then resumes it from the
// journal: the resumed search must produce a byte-identical decision trace
// to an uninterrupted reference run and must not re-run any evaluation the
// killed run finished.
func TestJournalResumeByteIdenticalTrace(t *testing.T) {
	for _, par := range []int{1, 4} {
		// Reference: uninterrupted, no journal.
		ref := Search(rand.New(rand.NewSource(11)), &synthEval{}, journalOpts(par))
		want := ref.DecisionTrace()

		// Killed run: interrupt after 2 batches, journaling every evaluation.
		j := newMemJournal(nil)
		opts := journalOpts(par)
		opts.Journal = j
		batches := 0
		opts.Interrupt = func() bool {
			batches++
			return batches > 2
		}
		res, err := interruptibleSearch(rand.New(rand.NewSource(11)), &synthEval{}, opts)
		if err != ErrInterrupted {
			t.Fatalf("par=%d: interrupted search returned err=%v, want ErrInterrupted", par, err)
		}
		if res != nil {
			t.Fatalf("par=%d: interrupted search returned a result", par)
		}
		finished := len(j.appended)
		if finished == 0 {
			t.Fatalf("par=%d: killed run journaled nothing", par)
		}
		if finished >= len(ref.Trace) {
			t.Fatalf("par=%d: killed run finished all %d evaluations; interrupt never bit", par, finished)
		}

		// Resume: same seed, journal reloaded. The prefix must come from the
		// journal (zero evaluator calls for it) and the final trace must be
		// byte-identical to the reference.
		resumed := newMemJournal(j.contents())
		opts2 := journalOpts(par)
		opts2.Journal = resumed
		eval := &synthEval{}
		res2, err := interruptibleSearch(rand.New(rand.NewSource(11)), eval, opts2)
		if err != nil {
			t.Fatalf("par=%d: resumed search failed: %v", par, err)
		}
		if got := res2.DecisionTrace(); got != want {
			t.Fatalf("par=%d: resumed trace diverged from the uninterrupted reference\nwant:\n%s\ngot:\n%s",
				par, want, got)
		}
		fresh := int(eval.evaluations.Load())
		if wantFresh := len(ref.Trace) - finished; fresh != wantFresh {
			t.Fatalf("par=%d: resumed run made %d fresh evaluations, want %d (total %d - journaled %d)",
				par, fresh, wantFresh, len(ref.Trace), finished)
		}
		if res2.Stats.Evaluations != ref.Stats.Evaluations {
			t.Fatalf("par=%d: resumed SearchStats.Evaluations %d != reference %d",
				par, res2.Stats.Evaluations, ref.Stats.Evaluations)
		}
	}
}

// TestJournalFullReplayRunsNoEvaluations proves a complete journal replays
// the whole search without a single evaluator call.
func TestJournalFullReplayRunsNoEvaluations(t *testing.T) {
	j := newMemJournal(nil)
	opts := journalOpts(2)
	opts.Journal = j
	ref := Search(rand.New(rand.NewSource(7)), &synthEval{}, opts)

	replay := newMemJournal(j.contents())
	opts2 := journalOpts(2)
	opts2.Journal = replay
	eval := &synthEval{}
	res := Search(rand.New(rand.NewSource(7)), eval, opts2)
	if n := eval.evaluations.Load(); n != 0 {
		t.Fatalf("full replay ran %d evaluations, want 0", n)
	}
	if res.DecisionTrace() != ref.DecisionTrace() {
		t.Fatal("full replay diverged from the recorded search")
	}
	if len(replay.appended) != 0 {
		t.Fatalf("full replay re-appended %d journal entries", len(replay.appended))
	}
}

// interruptibleSearch runs Search and turns the interrupt unwind into
// ErrInterrupted with RecoverInterrupt, as fleet does around core.Optimize.
func interruptibleSearch(rng *rand.Rand, eval Evaluator, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, RecoverInterrupt(r)
		}
	}()
	return Search(rng, eval, opts), nil
}

// TestInterruptBeforeFirstBatch interrupts immediately: nothing is journaled
// and the search unwinds cleanly.
func TestInterruptBeforeFirstBatch(t *testing.T) {
	opts := journalOpts(1)
	j := newMemJournal(nil)
	opts.Journal = j
	opts.Interrupt = func() bool { return true }
	res, err := interruptibleSearch(rand.New(rand.NewSource(3)), &synthEval{}, opts)
	if err != ErrInterrupted || res != nil {
		t.Fatalf("got res=%v err=%v, want nil + ErrInterrupted", res, err)
	}
	if len(j.appended) != 0 {
		t.Fatalf("journal gained %d entries before the first batch", len(j.appended))
	}
}
