// Parallel, memoized candidate evaluation. The GA's search *decisions*
// (selection, crossover, mutation) stay on one goroutine drawing from one
// RNG in a fixed order; only candidate *evaluation* — compile + replay, the
// wall-clock budget of the whole search (§3.7) — fans out. Each generation's
// candidates are evaluated by a bounded worker pool and gathered in stable
// population order, so the resulting Result.Trace is byte-identical at any
// worker count. A genome-fingerprint memo cache sits in front of the
// evaluator: elites crossed with themselves, duplicate offspring, and
// revisited hill-climb neighbors skip both the compile and every replay.

package ga

import (
	"runtime"
	"sync"
	"time"

	"replayopt/internal/lir"
	"replayopt/internal/obs"
)

// SearchStats counts the evaluation work a search performed and the work
// the memo cache saved (§3.7 wall-clock accounting).
type SearchStats struct {
	// Considered is the number of candidate measurements the search
	// requested, cache hits included.
	Considered int
	// Evaluations is the number of full compile+replay evaluations actually
	// run — always equal to len(Result.Trace).
	Evaluations int
	// CacheHits counts measurements served from the memo cache.
	CacheHits int
	// SavedReplayMs estimates the replay wall-clock the cache skipped: the
	// recorded replay times of each hit's cached evaluation.
	SavedReplayMs float64
	// TVRejects counts fresh evaluations the translation validator discarded
	// statically (outcome tv-reject) — candidates that never reached replay.
	TVRejects int
	// TVSavedReplayEvals counts the replay evaluations validation made
	// unnecessary: every measurement (fresh or cache-served) whose outcome is
	// tv-reject stopped at compile time instead of running the interpreter.
	TVSavedReplayEvals int
}

// workers resolves the configured parallelism (0 or less = all cores).
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// measure evaluates a single genome through the memo cache (the serial
// hill-climb path).
func (s *searcher) measure(g *Genome) Evaluation {
	return s.measureBatch([]*Genome{g})[0]
}

// measureBatch measures every genome, fanning uncached configurations out
// to the worker pool and serving the rest from the memo cache. Results come
// back in argument order; the trace gains one record per evaluator call (a
// configuration measured for the first time), in first-appearance order.
// All bookkeeping — trace append, cache fill, identical-binary accounting —
// happens on the caller's goroutine, so a fixed seed produces the same
// search at any worker count.
func (s *searcher) measureBatch(genomes []*Genome) []Evaluation {
	// Drain requests are honored only here, between batches on the search
	// goroutine: no worker is in flight, every finished evaluation has been
	// journaled, and the resuming run will replay the exact prefix.
	if s.opts.Interrupt != nil && s.opts.Interrupt() {
		panic(interruptPanic{})
	}
	n := len(genomes)
	fps := make([]uint64, n)
	out := make([]Evaluation, n)

	// Decide, in index order, which configurations actually need the
	// evaluator: the first appearance of any fingerprint not in the cache.
	type job struct {
		idx int // first genome index with this fingerprint
		cfg lir.Config
	}
	var jobs []job
	owner := map[uint64]int{} // fingerprint -> jobs index
	for i, g := range genomes {
		cfg := g.Decode()
		fp := cfg.Fingerprint()
		fps[i] = fp
		if _, cached := s.cache[fp]; cached {
			continue
		}
		if _, queued := owner[fp]; queued {
			continue
		}
		owner[fp] = len(jobs)
		jobs = append(jobs, job{idx: i, cfg: cfg})
	}

	// Fan the unique uncached configurations out to the pool. With an
	// observation scope attached, each call is timed (wall clock feeds the
	// eval-latency histogram only — never a search decision) and the busy
	// gauge tracks worker occupancy.
	evs := make([]Evaluation, len(jobs))
	var lat []float64
	obsOn := s.obs != nil
	if obsOn {
		lat = make([]float64, len(jobs))
	}
	busy := s.obs.Scope().Gauge("ga.workers_busy")
	evalJob := func(j int) {
		// A journaled configuration skips compile and replay entirely: the
		// recorded Evaluation is what this run would have measured (the
		// evaluator purity contract), so serving it preserves the trace.
		if s.opts.Journal != nil {
			if past, ok := s.opts.Journal.Lookup(fps[jobs[j].idx]); ok {
				evs[j] = past
				return
			}
		}
		if !obsOn {
			evs[j] = s.eval.Evaluate(jobs[j].cfg)
			return
		}
		busy.Add(1)
		//detlint:allow time-now — observability-only latency sample, not candidate state
		t0 := time.Now()
		evs[j] = s.eval.Evaluate(jobs[j].cfg)
		lat[j] = float64(time.Since(t0).Microseconds()) / 1000.0
		busy.Add(-1)
	}
	workers := min(s.workers, len(jobs))
	if workers <= 1 {
		for j := range jobs {
			evalJob(j)
		}
	} else {
		var wg sync.WaitGroup
		ch := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range ch {
					evalJob(j)
				}
			}()
		}
		for j := range jobs {
			ch <- j
		}
		close(ch)
		wg.Wait()
	}

	// Gather on the search goroutine, in deterministic order: trace records
	// for fresh evaluations first (first-appearance order), then per-genome
	// results and the §4 identical-binaries accounting in index order.
	for j, jb := range jobs {
		s.cache[fps[jb.idx]] = evs[j]
		if s.opts.Journal != nil {
			// Record in trace order on this goroutine; implementations dedup
			// fingerprints they already hold, so replayed prefixes are not
			// re-appended by the resuming run.
			s.opts.Journal.Record(fps[jb.idx], evs[j])
		}
		s.trace = append(s.trace, EvalRecord{
			Index: len(s.trace), Generation: s.gen, Genome: genomes[jb.idx].withGenes(), Eval: evs[j],
		})
	}
	var sc *obs.Scope
	if obsOn {
		sc = s.obs.Scope()
		h := sc.Histogram("ga.eval_ms")
		for _, ms := range lat {
			h.Observe(ms)
		}
		s.phaseLat = append(s.phaseLat, lat...)
		s.phaseEvals += len(jobs)
		sc.Counter("ga.evaluations").Add(int64(len(jobs)))
	}
	for i := range genomes {
		ev := s.cache[fps[i]]
		out[i] = ev
		s.stats.Considered++
		sc.Counter("ga.considered").Add(1)
		if ev.Outcome == OutcomeTVReject {
			s.stats.TVSavedReplayEvals++
		}
		if jIdx, fresh := owner[fps[i]]; fresh && jobs[jIdx].idx == i {
			s.stats.Evaluations++
			if ev.Outcome == OutcomeTVReject {
				s.stats.TVRejects++
			}
			sc.Tally("ga.outcomes").Inc(ev.Outcome.String())
		} else {
			s.stats.CacheHits++
			s.phaseHits++
			sc.Counter("ga.cache_hits").Add(1)
			for _, t := range ev.TimesMs {
				s.stats.SavedReplayMs += t
			}
		}
		if ev.Outcome == OutcomeCorrect {
			s.seen[ev.BinaryHash]++
			if s.seen[ev.BinaryHash] > 1 {
				s.identicalRun++
			} else {
				s.identicalRun = 0
			}
		}
	}
	return out
}
