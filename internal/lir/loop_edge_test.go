package lir

import (
	"fmt"
	"testing"

	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/rt"
)

// Edge-case coverage for the loop transforms: trip counts around the unroll
// factor, zero-trip loops, and peeling interactions.

func runWith(t *testing.T, src string, passes ...PassSpec) uint64 {
	t.Helper()
	prog, err := minic.CompileSource("t", src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := O1()
	cfg.Passes = append(cfg.Passes, passes...)
	code, err := Compile(prog, nil, cfg, nil, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	proc := rt.NewProcess(prog, rt.Config{})
	x := machine.NewExec(proc, code)
	x.MaxCycles = 200_000_000
	v, err := x.Call(prog.Entry, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func sumSrc(n int) string {
	return fmt.Sprintf(`
func main() int {
	int s = 0;
	for (int i = 0; i < %d; i = i + 1) { s = s * 3 + i + 1; s = s %% 999983; }
	return s;
}`, n)
}

func TestUnrollTripCountEdges(t *testing.T) {
	// Trip counts straddling the factor: 0, 1, factor-1, factor,
	// factor+1, 2*factor, and a co-prime count.
	for _, trips := range []int{0, 1, 3, 4, 5, 8, 13} {
		src := sumSrc(trips)
		want := runWith(t, src) // O1 only
		for _, factor := range []int{2, 4, 8} {
			got := runWith(t, src, PassSpec{Name: "unroll", Params: map[string]int{"factor": factor}})
			if got != want {
				t.Errorf("trips=%d factor=%d: %d != %d", trips, factor, int64(got), int64(want))
			}
		}
	}
}

func TestPeelZeroAndOneTripLoops(t *testing.T) {
	for _, trips := range []int{0, 1, 2} {
		src := sumSrc(trips)
		want := runWith(t, src)
		got := runWith(t, src, PassSpec{Name: "peel", Params: map[string]int{"count": 2}})
		if got != want {
			t.Errorf("trips=%d: peel changed result %d -> %d", trips, int64(want), int64(got))
		}
	}
}

func TestUnrollThenPeelThenUnroll(t *testing.T) {
	src := `
func main() int {
	int s = 0;
	for (int i = 0; i < 29; i = i + 1) {
		for (int j = 0; j < 11; j = j + 1) { s = (s * 7 + i + j) % 1000003; }
	}
	return s;
}`
	want := runWith(t, src)
	got := runWith(t, src,
		PassSpec{Name: "unroll", Params: map[string]int{"factor": 4}},
		PassSpec{Name: "peel", Params: map[string]int{"count": 2}},
		PassSpec{Name: "unroll", Params: map[string]int{"factor": 2, "innermost-only": 0}},
		PassSpec{Name: "gccheckelim"},
		PassSpec{Name: "gvn"},
		PassSpec{Name: "dce"},
		PassSpec{Name: "simplifycfg"},
	)
	if got != want {
		t.Errorf("stacked loop transforms changed result: %d != %d", int64(got), int64(want))
	}
}

func TestGCCheckElimKeepsInnerLoopChecks(t *testing.T) {
	prog, err := minic.CompileSource("t", `
func main() int {
	int s = 0;
	for (int i = 0; i < 4; i = i + 1) {
		for (int j = 0; j < 4; j = j + 1) { s = s + i*j; }
	}
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	f, err := BuildSSA(prog, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunPassForTest(f, "gccheckelim", nil); err != nil {
		t.Fatal(err)
	}
	f.Recompute()
	loops := f.Loops()
	if len(loops) != 2 {
		t.Fatalf("%d loops", len(loops))
	}
	// Each loop must retain at least one GC check within its blocks.
	for _, l := range loops {
		found := false
		for _, b := range l.Blocks {
			for _, v := range b.Insns {
				if v.Op == OpGCCheck {
					found = true
				}
			}
		}
		if !found {
			t.Error("a loop lost its only safepoint")
		}
	}
}

func TestDevirtPolymorphicSiteLeftAlone(t *testing.T) {
	prog, err := minic.CompileSource("t", `
class A { func f(int x) int { return x + 1; } }
class B extends A { func f(int x) int { return x * 2; } }
func main() int {
	A[] objs = new A[2];
	objs[0] = new A();
	objs[1] = new B();
	int s = 0;
	for (int i = 0; i < 10; i = i + 1) {
		A o = objs[i % 2];
		s = s + o.f(i);
	}
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	// A 50/50 profile must not devirtualize at min-share 90.
	prof := NewProfile()
	var site SiteKey
	mainID := prog.Entry
	for pc, in := range prog.Methods[mainID].Code {
		if in.Op.IsInvoke() {
			site = SiteKey{Method: mainID, PC: pc}
		}
	}
	prof.Record(site, 0)
	prof.Record(site, 1)
	f, _ := BuildSSA(prog, mainID)
	info, _ := PassByName("devirt")
	if err := info.Run(f, &PassContext{Profile: prof}, resolveParams(info, nil)); err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op == OpClassOf {
				t.Fatal("polymorphic site was devirtualized at 50% share")
			}
		}
	}
}
