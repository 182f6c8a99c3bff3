package lir_test

import (
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/lir"
)

// lowerInput is one method's function after the O3 pipeline, ready to lower.
type lowerInput struct {
	name string
	f    *lir.Function
	opts lir.LowerOpts
}

// lastPass keeps a clone of the function after the pipeline's last pass.
type lastPass struct {
	n   int
	out **lir.Function
}

func (l *lastPass) BeforePass(*lir.Function, *lir.PassApplication) bool { return true }

func (l *lastPass) AfterPass(f *lir.Function, _ *lir.PassApplication) {
	if l.n--; l.n == 0 {
		*l.out = lir.Clone(f)
	}
}

// o3Inputs returns the O3-optimized functions of the named methods of app.
func o3Inputs(tb testing.TB, app string, methods ...string) []lowerInput {
	spec, ok := apps.ByName(app)
	if !ok {
		tb.Fatalf("no app %q", app)
	}
	a, err := apps.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := lir.O3()
	var out []lowerInput
	for _, name := range methods {
		var f *lir.Function
		cfg.Trace = &lastPass{n: len(cfg.Passes), out: &f}
		if _, err := lir.CompileMethod(a.Prog, methodByName(tb, a.Prog, name), cfg, nil, nil); err != nil {
			tb.Fatalf("%s %s: %v", app, name, err)
		}
		out = append(out, lowerInput{name, f, cfg.Lower})
	}
	return out
}

// BenchmarkLower lowers the O3-optimized hot methods of the apps whose
// searches lower the most: SSA to machine code, then move folding,
// scheduling and register allocation. Each iteration lowers fresh clones, and
// only Lower is timed.
func BenchmarkLower(b *testing.B) {
	for _, c := range []struct {
		app     string
		methods []string
	}{
		{"Svarka Calculator", []string{"kernel", "simulate", "cardScore", "sweep"}},
		{"DroidFish", []string{"kernel", "evalBoard", "sweep", "TunedValue.of"}},
		{"Fibonacci.recv", []string{"kernel", "fib", "sweep"}},
	} {
		ins := o3Inputs(b, c.app, c.methods...)
		b.Run(c.app, func(b *testing.B) {
			b.ReportAllocs()
			fs := make([]*lir.Function, len(ins))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, in := range ins {
					fs[j] = lir.Clone(in.f)
				}
				b.StartTimer()
				for j, in := range ins {
					if _, err := lir.Lower(fs[j], in.opts); err != nil {
						b.Fatalf("%s: %v", in.name, err)
					}
				}
			}
		})
	}
}

// TestLowerAllocs bounds the allocations of lowering DroidFish's evalBoard
// after O3, so that per-value maps and unsized buffers do not creep back into
// the lowerer and the machine passes.
func TestLowerAllocs(t *testing.T) {
	const runs = 20
	in := o3Inputs(t, "DroidFish", "evalBoard")[0]
	fs := make([]*lir.Function, runs+1) // AllocsPerRun calls once more to warm up
	for i := range fs {
		fs[i] = lir.Clone(in.f)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := lir.Lower(fs[next], in.opts); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.0f allocations per Lower", allocs)
	if allocs > maxLowerAllocs {
		t.Errorf("lowering evalBoard allocates %.0f times, want at most %d", allocs, maxLowerAllocs)
	}
}

// maxLowerAllocs is the count measured when the list scheduler dropped its
// per-block maps (336 with go1.24), plus headroom. The maps put it at 756,
// and before them pointer-keyed lowering tables and unsized buffers at 850.
const maxLowerAllocs = 380
