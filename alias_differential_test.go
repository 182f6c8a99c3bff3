package replayopt

// Differential safety net for the alias-aware memory passes: appending each
// consumer — storeforward, dse, licm with load hoisting, stackalloc — alone
// and all together to every preset pipeline must leave every evaluation app's
// observable result identical, with the strict translation validator attached
// and earning zero Rejected verdicts. The summaries come from the same
// pts.Attach the optimizer's prepare stage runs, so this exercises exactly
// the facts the search would hand the passes. This is the whole-program
// complement of the per-pass progen fuzzing cmd/tvlint runs (tv.Differential
// drills lir.PassNames(), which the registration assertion below ties to the
// new pass).

import (
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
)

// aliasPassSpecs are the alias-consuming variants under test; licm only
// consumes the facts with load hoisting enabled.
var aliasPassSpecs = []lir.PassSpec{
	{Name: "storeforward"},
	{Name: "dse"},
	{Name: "licm", Params: map[string]int{"loads": 1}},
	{Name: "stackalloc"},
}

// TestAliasPassesInFuzzerPool: tv.Differential (the tvlint fuzzer) drills
// lir.PassNames() by default, so registration is what opts stackalloc into
// that coverage alongside the long-registered memory passes.
func TestAliasPassesInFuzzerPool(t *testing.T) {
	registered := map[string]bool{}
	for _, n := range lir.PassNames() {
		registered[n] = true
	}
	for _, spec := range aliasPassSpecs {
		if !registered[spec.Name] {
			t.Errorf("pass %s not in lir.PassNames(); tvlint's fuzzer would skip it", spec.Name)
		}
	}
}

func TestAliasPassDifferential(t *testing.T) {
	presets := []struct {
		name string
		cfg  func() lir.Config
	}{
		{"O1", lir.O1}, {"O2", lir.O2}, {"O3", lir.O3},
	}
	// Each alias-consuming pass alone, then all four together.
	variants := make([][]lir.PassSpec, 0, len(aliasPassSpecs)+1)
	for _, spec := range aliasPassSpecs {
		variants = append(variants, []lir.PassSpec{spec})
	}
	variants = append(variants, aliasPassSpecs)
	specs := append(apps.All(), apps.WitnessSpec(), apps.ScratchSpec())
	if testing.Short() {
		// Kernel, interactive, and diagnostic representatives; ScratchFilter
		// is the app engineered to make stackalloc fire.
		short := map[string]bool{"Sparse matmult": true, "MaterialLife": true, "ScratchFilter": true}
		var keep []apps.Spec
		for _, s := range specs {
			if short[s.Name] {
				keep = append(keep, s)
			}
		}
		specs = keep
		presets = presets[:1]
	}

	run := func(app *core.App, code *machine.Program) (uint64, error) {
		_, x := app.NewProcessAndExec(code)
		x.MaxCycles = 50_000_000_000
		return x.Call(app.Prog.Entry, nil)
	}

	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			app, err := apps.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			static := sa.Analyze(app.Prog)
			pts.Attach(static)
			for _, pre := range presets {
				base, err := lir.Compile(app.Prog, nil, pre.cfg(), nil, static)
				if err != nil {
					t.Fatalf("%s baseline compile: %v", pre.name, err)
				}
				want, werr := run(app, base)
				for _, passes := range variants {
					cfg := pre.cfg()
					names := make([]string, len(passes))
					for i, p := range passes {
						cfg.Passes = append(cfg.Passes, p)
						names[i] = p.Name
					}
					chk := tv.NewChecker(tv.Options{Reject: true, Strict: true})
					cfg.Check = chk
					code, err := lir.Compile(app.Prog, nil, cfg, nil, static)
					if err != nil {
						t.Fatalf("%s+%v compile: %v", pre.name, names, err)
					}
					if _, _, rejected := chk.Counts(); rejected != 0 {
						t.Errorf("%s+%v: %d tv rejections", pre.name, names, rejected)
					}
					got, gerr := run(app, code)
					if (gerr != nil) != (werr != nil) {
						t.Fatalf("%s+%v: trap behaviour diverged: base err %v, opt err %v",
							pre.name, names, werr, gerr)
					}
					if got != want {
						t.Errorf("%s+%v: result %d, baseline %d",
							pre.name, names, int64(got), int64(want))
					}
				}
			}
		})
	}
}
