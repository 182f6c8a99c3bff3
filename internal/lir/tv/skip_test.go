package tv_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/lirtest"
	"replayopt/internal/lir/tv"
	"replayopt/internal/minic"
	"replayopt/internal/profile"
	"replayopt/internal/progen"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

// twinCheck runs a checker and its full-validation oracle side by side on
// one compile; the oracle's error is the one that aborts it.
type twinCheck struct {
	chk, full *tv.Checker
	errs      *[]string // one line per application whose errors differ
}

func (w twinCheck) BeforePass(f *lir.Function, app *lir.PassApplication) {
	w.chk.BeforePass(f, app)
	w.full.BeforePass(f, app)
}

func (w twinCheck) AfterPass(f *lir.Function, app *lir.PassApplication) error {
	err, want := w.chk.AfterPass(f, app), w.full.AfterPass(f, app)
	if fmt.Sprint(err) != fmt.Sprint(want) {
		*w.errs = append(*w.errs, fmt.Sprintf("%s after %s: error %v, full validation %v", f.Name, app.Spec.Name, err, want))
	}
	return want
}

// TestShortcutsMatchFullValidation is the oracle of the checker's
// unchanged-application shortcuts: over the compile-identity matrix, on
// every app and on three generated programs, a checker that clones,
// verifies and validates every application in full must record the same
// verdicts and reasons and end the same compiles with the same errors. Every
// pipeline runs as the search runs it (Reject, Strict); the presets also run
// as the audit does (Strict) and with neither option.
func TestShortcutsMatchFullValidation(t *testing.T) {
	type program struct {
		name   string
		prog   *dex.Program
		static *sa.Result
	}
	var progs []program
	for _, spec := range apps.All() {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		static := profile.Analyze(app.Prog).Effects
		vra.Attach(static)
		pts.Attach(static)
		progs = append(progs, program{spec.Name, app.Prog, static})
	}
	for _, seed := range []int64{11, 19, 22} {
		name := fmt.Sprintf("progen%d", seed)
		prog, err := minic.CompileSource(name, progen.Generate(rand.New(rand.NewSource(seed)), progen.Default()))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{name, prog, profile.Analyze(prog).Effects})
	}
	configs := lirtest.Matrix()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, p := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, c := range configs {
				optss := []tv.Options{{Reject: true, Strict: true}}
				if _, preset := lir.Preset(c.Label); preset {
					optss = append(optss, tv.Options{Strict: true}, tv.Options{})
				}
				for _, opts := range optss {
					var errs []string
					w := twinCheck{tv.NewChecker(opts), tv.NewFullChecker(opts), &errs}
					cfg := c.Config
					cfg.Check = w
					for i, m := range p.prog.Methods {
						if !m.Uncompilable {
							lir.CompileMethod(p.prog, dex.MethodID(i), cfg, nil, p.static)
						}
					}
					for _, e := range errs {
						t.Errorf("%s %s %+v: %s", p.name, c.Label, opts, e)
					}
					if got, want := w.chk.Verdicts, w.full.Verdicts; !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s %+v: %d verdicts differ from full validation's %d (first: %s)",
							p.name, c.Label, opts, len(got), len(want), firstDiff(got, want))
					}
				}
			}
		}()
	}
	wg.Wait()
}

func firstDiff(got, want []tv.PassVerdict) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("#%d %+v, full %+v", i, got[i], want[i])
		}
	}
	return "one list is a prefix of the other"
}
