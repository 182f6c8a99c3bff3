package lir_test

import (
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
)

// BenchmarkCompileMethod compiles the hot-region methods of the
// compile-heavy apps under one fixed inlining, unrolling, and value-numbering
// pipeline. It guards the asymptotics of the CFG analyses and of inlining:
// every inlined call site, unrolled loop, and merged block used to pay for a
// full Recompute with loop-depth discovery, every inlined call site for a
// BuildSSA of its callee and a sweep over the whole caller, and every
// Recompute that found the CFG unchanged for a full recompute.
func BenchmarkCompileMethod(b *testing.B) {
	cfg := lir.O1()
	cfg.Passes = append(cfg.Passes,
		lir.PassSpec{Name: "inline", Params: map[string]int{"threshold": 250, "rounds": 4}},
		lir.PassSpec{Name: "unroll", Params: map[string]int{"factor": 8, "innermost-only": 0}},
		lir.PassSpec{Name: "gvn"},
		lir.PassSpec{Name: "licm"},
		lir.PassSpec{Name: "simplifycfg"},
		lir.PassSpec{Name: "sink"},
		lir.PassSpec{Name: "dce"},
	)
	for _, c := range []struct {
		app     string
		methods []string
	}{
		{"Fibonacci.recv", []string{"kernel", "fib", "sweep"}},
		{"DroidFish", []string{"kernel", "evalBoard", "sweep", "TunedValue.of"}},
		{"Linpack", []string{"kernel", "gauss", "sweep", "daxpy"}},
		{"Poker Odds (Vitosha)", []string{"kernel", "simulate", "sweep", "rank5", "lcgNext"}},
	} {
		spec, ok := apps.ByName(c.app)
		if !ok {
			b.Fatalf("no app %q", c.app)
		}
		app, err := apps.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]dex.MethodID, len(c.methods))
		for i, name := range c.methods {
			ids[i] = methodByName(b, app.Prog, name)
		}
		b.Run(c.app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					if _, err := lir.CompileMethod(app.Prog, id, cfg, nil, nil); err != nil {
						b.Fatalf("%s: %v", app.Prog.Methods[id].Name, err)
					}
				}
			}
		})
	}
}

func methodByName(tb testing.TB, prog *dex.Program, name string) dex.MethodID {
	for i, m := range prog.Methods {
		if m.Name == name {
			return dex.MethodID(i)
		}
	}
	tb.Fatalf("no method %q", name)
	return 0
}
