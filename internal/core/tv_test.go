package core

import (
	"testing"

	"replayopt/internal/ga"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/minic"
)

// TestTVCheckSearchParity drops the deliberately miscompiling tvbreak pass
// into the catalog and runs the same seeded pipeline with translation
// validation off and on. The decision traces must be byte-identical — the
// validator only moves *when* a bad candidate is discarded (compile time vs
// replay verification), never *whether* — and the validated run must report
// statically rejected candidates and the replays they saved.
func TestTVCheckSearchParity(t *testing.T) {
	cleanup := lir.RegisterForTesting(tv.MiscompilePass())
	defer cleanup()

	run := func(tvcheck bool) *Report {
		t.Helper()
		prog, err := minic.CompileSource("miniapp", appSrc)
		if err != nil {
			t.Fatal(err)
		}
		opts := tvDrillOptions()
		opts.TVCheck = tvcheck
		opt := New(opts)
		rep, err := opt.Optimize(&App{Name: "miniapp", Prog: prog})
		if err != nil {
			t.Fatalf("Optimize(tvcheck=%v): %v", tvcheck, err)
		}
		return rep
	}
	repOff := run(false)
	repOn := run(true)

	if off, on := repOff.Search.DecisionTrace(), repOn.Search.DecisionTrace(); off != on {
		t.Errorf("decision traces differ with tvcheck on vs off:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
	if repOff.SearchStats.TVRejects != 0 || repOff.SearchStats.TVSavedReplayEvals != 0 {
		t.Errorf("tvcheck off counted TV work: %+v", repOff.SearchStats)
	}
	if repOn.SearchStats.TVRejects == 0 {
		t.Error("tvcheck on rejected no candidate despite tvbreak in the catalog")
	}
	if repOn.SearchStats.TVSavedReplayEvals < repOn.SearchStats.TVRejects {
		t.Errorf("saved replay evals (%d) < rejects (%d)",
			repOn.SearchStats.TVSavedReplayEvals, repOn.SearchStats.TVRejects)
	}
	var rejects, wrongAtSame int
	for i, rec := range repOn.Search.Trace {
		if rec.Eval.Outcome == ga.OutcomeTVReject {
			rejects++
			if repOff.Search.Trace[i].Eval.Outcome == ga.OutcomeWrongOutput {
				wrongAtSame++
			}
		}
	}
	if rejects == 0 {
		t.Error("no tv-reject outcome in the validated trace")
	}
	if wrongAtSame != rejects {
		t.Errorf("only %d of %d tv-rejected candidates were wrong-output discards without validation",
			wrongAtSame, rejects)
	}
}

// TestTVCheckScheduleChargesCompileOnly checks the §3.7 accounting: a
// tv-rejected candidate costs one compile and zero replays, and the
// schedule report's discard tally says so.
func TestTVCheckScheduleChargesCompileOnly(t *testing.T) {
	cleanup := lir.RegisterForTesting(tv.MiscompilePass())
	defer cleanup()

	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := tvDrillOptions()
	opts.TVCheck = true
	opt := New(opts)
	rep, err := opt.Optimize(&App{Name: "miniapp", Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	sched := ScheduleSearch(opt.Dev, rep.Search, DefaultScheduleOptions())
	if sched.Discards[ga.OutcomeTVReject.String()] == 0 {
		t.Errorf("schedule discards missing tv-reject: %v", sched.Discards)
	}
	if sched.Discards[ga.OutcomeTVReject.String()] != rep.SearchStats.TVRejects {
		t.Errorf("schedule tv-rejects (%d) != search stats (%d)",
			sched.Discards[ga.OutcomeTVReject.String()], rep.SearchStats.TVRejects)
	}
}

// tvDrillOptions shrinks the search's pass pool to tvbreak and two sound
// passes, so the search samples tvbreak by construction, whatever the seed
// and however large the catalog grows.
func tvDrillOptions() Options {
	opts := smallOptions()
	opts.Seed = 5
	for _, n := range lir.PassNames() {
		if n != tv.MiscompilePassName && n != "constfold" && n != "dce" {
			opts.GA.ExcludePasses = append(opts.GA.ExcludePasses, n)
		}
	}
	return opts
}
