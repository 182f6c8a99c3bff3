package lir_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/lirtest"
	"replayopt/internal/profile"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

// pruneChecker checks every function Lower receives, the one the last pass
// of a pipeline leaves, against the eager prunePhis reference.
type pruneChecker struct {
	t       *testing.T
	passes  int // pipeline length
	seen    int // applications so far in the current method
	checked *atomic.Int64
	pruned  *atomic.Int64
}

func (c *pruneChecker) BeforePass(*lir.Function, *lir.PassApplication) bool { return true }

func (c *pruneChecker) AfterPass(f *lir.Function, app *lir.PassApplication) {
	if c.seen++; c.seen < c.passes || app.Err != nil {
		return
	}
	c.seen = 0
	checkPrune(c.t, f, c.checked, c.pruned)
}

func checkPrune(t *testing.T, f *lir.Function, checked, pruned *atomic.Int64) {
	got, want := lir.Clone(f), lir.Clone(f)
	lir.PrunePhis(got)
	lir.PrunePhisEager(want)
	if !lir.SameIR(got, want) {
		t.Errorf("%s: prunePhis left\n%s\nthe eager reference left\n%s", f.Name, got, want)
	}
	checked.Add(1)
	if lir.HashFunction(got) != lir.HashFunction(f) {
		pruned.Add(1)
	}
}

// TestPrunePhisMatchesEagerOnLowerInputs runs prunePhis and the eager
// reference on every function Lower receives in the compile-identity matrix
// (every app, every pipeline of lirtest.Matrix) and on every method's SSA
// form, and requires the same IR from both.
func TestPrunePhisMatchesEagerOnLowerInputs(t *testing.T) {
	configs := lirtest.Matrix()
	if testing.Short() {
		configs = configs[:3] // the presets
	}
	var checked, pruned atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, spec := range apps.All() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			app, err := apps.Build(spec)
			if err != nil {
				t.Error(err)
				return
			}
			static := profile.Analyze(app.Prog).Effects
			vra.Attach(static)
			pts.Attach(static)
			for i, m := range app.Prog.Methods {
				if m.Uncompilable {
					continue
				}
				if f, err := lir.BuildSSA(app.Prog, dex.MethodID(i)); err == nil {
					checkPrune(t, f, &checked, &pruned)
				}
			}
			for _, c := range configs {
				cfg := c.Config
				if len(cfg.Passes) == 0 {
					continue // the SSA forms above are these inputs
				}
				cfg.Trace = &pruneChecker{t: t, passes: len(cfg.Passes), checked: &checked, pruned: &pruned}
				for i, m := range app.Prog.Methods {
					if !m.Uncompilable {
						lir.CompileMethod(app.Prog, dex.MethodID(i), cfg, nil, static)
					}
				}
			}
		}()
	}
	wg.Wait()
	if pruned.Load() == 0 {
		t.Fatalf("none of %d Lower inputs had a trivial phi to prune", checked.Load())
	}
	t.Logf("%d Lower inputs checked, %d with trivial phis", checked.Load(), pruned.Load())
}
