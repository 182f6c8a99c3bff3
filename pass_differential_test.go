package replayopt

// Differential safety net for the value-range passes (§3.5) and the
// alias-aware memory passes: appending each pass of a family — alone and all
// together — to every preset pipeline must leave every evaluation app's
// observable result identical, with the strict translation validator attached
// and earning zero Rejected verdicts. Each family's facts come from the same
// Attach the optimizer's prepare stage runs (vra for ranges, pts for
// aliases), so this exercises exactly the facts the search would hand the
// passes. This is the whole-program complement of the per-pass progen
// fuzzing cmd/tvlint runs (tv.Differential drills lir.PassNames(), which the
// fuzzer-pool tests tie to every family's passes).

import (
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

// passFamily is one row of the differential matrix.
type passFamily struct {
	// passes are the variants' building blocks: each alone, then all.
	passes []lir.PassSpec
	// attach computes the facts the passes consume.
	attach func(*sa.Result)
	// specs are the apps under test; short names the -short subset.
	specs []apps.Spec
	short map[string]bool
}

var (
	rangeFamily = passFamily{
		passes: []lir.PassSpec{{Name: "rangecheckelim"}, {Name: "rangebranch"}, {Name: "rangestrength"}},
		attach: vra.Attach,
		specs:  append(apps.All(), apps.WitnessSpec()),
		// Kernel, interactive, and diagnostic representatives.
		short: map[string]bool{"SOR": true, "MaterialLife": true, "WitnessFilter": true},
	}
	aliasFamily = passFamily{
		// licm only consumes the alias facts with load hoisting enabled.
		passes: []lir.PassSpec{
			{Name: "storeforward"},
			{Name: "dse"},
			{Name: "licm", Params: map[string]int{"loads": 1}},
			{Name: "stackalloc"},
		},
		attach: pts.Attach,
		specs:  append(apps.All(), apps.WitnessSpec(), apps.ScratchSpec()),
		// Kernel, interactive, and diagnostic representatives; ScratchFilter
		// is the app engineered to make stackalloc fire.
		short: map[string]bool{"Sparse matmult": true, "MaterialLife": true, "ScratchFilter": true},
	}
)

// The fuzzer-pool tests: tv.Differential (the tvlint fuzzer) drills
// lir.PassNames() by default, so registration is what opts a family's
// passes into that coverage. A rename that silently drops one from the
// registry would otherwise drop it from the fuzzer too.
func TestRangePassesInFuzzerPool(t *testing.T) { testInFuzzerPool(t, rangeFamily) }

func TestAliasPassesInFuzzerPool(t *testing.T) { testInFuzzerPool(t, aliasFamily) }

func testInFuzzerPool(t *testing.T, fam passFamily) {
	registered := map[string]bool{}
	for _, n := range lir.PassNames() {
		registered[n] = true
	}
	for _, p := range fam.passes {
		if !registered[p.Name] {
			t.Errorf("pass %s not in lir.PassNames(); tvlint's fuzzer would skip it", p.Name)
		}
	}
}

func TestRangePassDifferential(t *testing.T) { testPassDifferential(t, rangeFamily) }

func TestAliasPassDifferential(t *testing.T) { testPassDifferential(t, aliasFamily) }

func testPassDifferential(t *testing.T, fam passFamily) {
	presets := []struct {
		name string
		cfg  func() lir.Config
	}{
		{"O1", lir.O1}, {"O2", lir.O2}, {"O3", lir.O3},
	}
	variants := make([][]lir.PassSpec, 0, len(fam.passes)+1)
	for _, p := range fam.passes {
		variants = append(variants, []lir.PassSpec{p})
	}
	variants = append(variants, fam.passes)
	specs := fam.specs
	if testing.Short() {
		var keep []apps.Spec
		for _, s := range specs {
			if fam.short[s.Name] {
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
			fam.attach(static)
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
