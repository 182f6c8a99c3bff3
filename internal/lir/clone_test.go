package lir_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/profile"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

// TestCloneFidelity clones every compilable method of every app, as BuildSSA
// returns it and after O2's passes: the copy must hash the same, carry the
// same ID counters and analysis caches, and a pipeline run on the copy must
// leave the original's hash and caches alone.
func TestCloneFidelity(t *testing.T) {
	edited := 0
	for _, spec := range apps.All() {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		prog := app.Prog
		for i, m := range prog.Methods {
			if m.Uncompilable {
				continue
			}
			for _, stage := range []string{"built", "O2"} {
				f, err := lir.BuildSSA(prog, dex.MethodID(i))
				if err != nil {
					t.Fatalf("%s/%s: %v", spec.Name, m.Name, err)
				}
				if stage == "O2" {
					for _, ps := range lir.O2().Passes {
						if err := lir.RunPassForTest(f, ps.Name, ps.Params); err != nil {
							t.Fatalf("%s/%s: %s: %v", spec.Name, m.Name, ps.Name, err)
						}
					}
				}
				hash, state := lir.HashFunction(f), lir.AnalysisState(f)
				c := lir.Clone(f)
				if got := lir.HashFunction(c); got != hash {
					t.Fatalf("%s/%s (%s): clone hashes %016x, original %016x", spec.Name, m.Name, stage, got, hash)
				}
				if got := lir.AnalysisState(c); got != state {
					t.Fatalf("%s/%s (%s): clone state\n%s\noriginal\n%s", spec.Name, m.Name, stage, got, state)
				}
				for _, ps := range lir.O3().Passes {
					if err := lir.RunPassForTest(c, ps.Name, ps.Params); err != nil {
						t.Fatalf("%s/%s (%s): clone: %s: %v", spec.Name, m.Name, stage, ps.Name, err)
					}
				}
				if lir.HashFunction(c) != hash {
					edited++
				}
				if lir.HashFunction(f) != hash || lir.AnalysisState(f) != state {
					t.Fatalf("%s/%s (%s): editing the clone changed the original", spec.Name, m.Name, stage)
				}
			}
		}
	}
	if edited == 0 {
		t.Fatal("O3 changed no clone; the test edits nothing")
	}
}

// TestRecomputeStampOracle compiles every app under TestCompileIdentity's
// configuration list with every stamped Recompute skip checked against a
// full recompute on a copy: block order, edges, rpo, IDom and dominator
// numbering must all agree.
func TestRecomputeStampOracle(t *testing.T) {
	var skips atomic.Int64
	var once sync.Once
	defer lir.OnStampSkip(func(f *lir.Function, err error) {
		skips.Add(1)
		if err != nil {
			once.Do(func() { t.Errorf("%s: stamped Recompute skip differs from a full one: %v", f.Name, err) })
		}
	})()
	configs := identityConfigs()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, spec := range apps.All() {
		wg.Add(1)
		go func(spec apps.Spec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			app, err := apps.Build(spec)
			if err != nil {
				t.Errorf("%s: %v", spec.Name, err)
				return
			}
			static := profile.Analyze(app.Prog).Effects
			vra.Attach(static)
			pts.Attach(static)
			for _, c := range configs {
				for i, m := range app.Prog.Methods {
					if !m.Uncompilable {
						lir.CompileMethod(app.Prog, dex.MethodID(i), c.cfg, nil, static) // errors are TestCompileIdentity's business
					}
				}
			}
		}(spec)
	}
	wg.Wait()
	if skips.Load() == 0 {
		t.Fatal("no Recompute was skipped; the oracle checked nothing")
	}
	t.Logf("%d stamped skips checked", skips.Load())
}

// TestCompileMatchesCompileMethod checks that one Compile, whose methods
// share one SSA cache, produces the image that compiling each method on its
// own does, under pipelines that inline deeply.
func TestCompileMatchesCompileMethod(t *testing.T) {
	deep := lir.O3()
	deep.Passes = append(deep.Passes, lir.PassSpec{Name: "inline", Params: map[string]int{"threshold": 4000, "rounds": 6}})
	for _, spec := range apps.All() {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		prog := app.Prog
		for _, cfg := range []lir.Config{lir.O2(), deep} {
			code, err := lir.Compile(prog, nil, cfg, nil, nil)
			want := machine.NewProgram()
			var werr error
			for i, m := range prog.Methods {
				if m.Uncompilable {
					continue
				}
				fn, err := lir.CompileMethod(prog, dex.MethodID(i), cfg, nil, nil)
				if err != nil {
					werr = err
					break
				}
				want.Fns[dex.MethodID(i)] = fn
			}
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s: Compile error %v, CompileMethod error %v", spec.Name, err, werr)
			}
			if err == nil && machine.HashProgram(code) != machine.HashProgram(want) {
				t.Errorf("%s: Compile's image differs from CompileMethod's", spec.Name)
			}
		}
	}
}
