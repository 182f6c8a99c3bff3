package lir

import (
	"errors"
	"strings"
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/interp"
	"replayopt/internal/machine"
	"replayopt/internal/mem"
	"replayopt/internal/minic"
	"replayopt/internal/rt"
)

// The differential corpus: programs chosen to exercise loops (counted and
// not), nesting, floats, arrays, calls, virtual dispatch, and globals.
var corpus = []struct {
	name string
	src  string
}{
	{"counted_sum", `func main() int {
		int s = 0;
		for (int i = 0; i < 103; i = i + 1) { s = s + i*i; }
		return s;
	}`},
	{"nested_loops", `func main() int {
		int s = 0;
		for (int i = 0; i < 23; i = i + 1) {
			for (int j = 0; j < 17; j = j + 1) { s = s + i*j - (i^j); }
		}
		return s;
	}`},
	{"array_kernel", `func main() int {
		float[] a = new float[97];
		for (int i = 0; i < len(a); i = i + 1) { a[i] = itof(i) * 0.5; }
		float s = 0.0;
		for (int i = 0; i < len(a); i = i + 1) { s = s + a[i] * a[i]; }
		return ftoi(s);
	}`},
	{"branchy", `func main() int {
		int s = 0;
		for (int i = 0; i < 61; i = i + 1) {
			if (i % 3 == 0) { s = s + i; }
			else if (i % 5 == 0) { s = s - i; }
			else { s = s ^ i; }
		}
		return s;
	}`},
	{"calls_and_inline", `
	func sq(int x) int { return x * x; }
	func tw(int x) int { return sq(x) + sq(x + 1); }
	func main() int {
		int s = 0;
		for (int i = 0; i < 41; i = i + 1) { s = s + tw(i); }
		return s;
	}`},
	{"virtual_loop", `
	class Op { func apply(int x) int { return x; } }
	class Dbl extends Op { func apply(int x) int { return x * 2; } }
	class Neg extends Op { func apply(int x) int { return 0 - x; } }
	func main() int {
		Op d = new Dbl();
		int s = 0;
		for (int i = 0; i < 53; i = i + 1) { s = s + d.apply(i); }
		Op n = new Neg();
		return s + n.apply(7);
	}`},
	{"globals_and_fields", `
	global int total;
	class Acc { int v; func add(int x) { this.v = this.v + x; } }
	func main() int {
		Acc a = new Acc();
		for (int i = 0; i < 29; i = i + 1) { a.add(i); total = total + 1; }
		return a.v * 1000 + total;
	}`},
	{"float_chain", `func main() int {
		float s = 1.0;
		for (int i = 1; i < 40; i = i + 1) {
			s = s + 1.0 / (itof(i) * itof(i)) - 0.001 * itof(i);
		}
		return ftoi(s * 1000000.0);
	}`},
	{"while_loop_unknown_trip", `
	func collatz(int n) int {
		int steps = 0;
		while (n != 1) {
			if (n % 2 == 0) { n = n / 2; } else { n = 3*n + 1; }
			steps = steps + 1;
		}
		return steps;
	}
	func main() int { return collatz(27); }`},
	{"natives_math", `func main() int {
		float s = 0.0;
		for (int i = 1; i < 30; i = i + 1) { s = s + sqrt(itof(i)) * sin(itof(i)); }
		return ftoi(s * 10000.0);
	}`},
	{"remainder_sensitive", `func main() int {
		// Trip count 101 is deliberately not a multiple of any unroll factor.
		int s = 0;
		for (int i = 0; i < 101; i = i + 1) { s = s * 3 + i; s = s % 100003; }
		return s;
	}`},
	{"negative_division", `func main() int {
		int s = 0;
		for (int i = 0 - 40; i < 40; i = i + 1) { s = s + i / 4 + i / 8; }
		return s;
	}`},
}

func interpRun(t *testing.T, prog *dex.Program) (uint64, uint64, *rt.Process) {
	t.Helper()
	proc := rt.NewProcess(prog, rt.Config{})
	e := interp.NewEnv(proc)
	e.MaxCycles = 1_000_000_000
	v, err := e.Run()
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	return v, e.Cycles, proc
}

func mustCompileAll(t *testing.T, prog *dex.Program, cfg Config, prof *Profile) *machine.Program {
	t.Helper()
	code, err := Compile(prog, nil, cfg, prof, nil)
	if err != nil {
		t.Fatalf("lir compile: %v", err)
	}
	return code
}

func runCompiled(t *testing.T, prog *dex.Program, code *machine.Program) (uint64, uint64, *rt.Process) {
	t.Helper()
	proc := rt.NewProcess(prog, rt.Config{})
	x := machine.NewExec(proc, code)
	x.MaxCycles = 1_000_000_000
	v, err := x.Call(prog.Entry, nil)
	if err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	return v, x.Cycles, proc
}

func heapAndGlobalsMatch(t *testing.T, prog *dex.Program, a, b *rt.Process) {
	t.Helper()
	if a.HeapUsed() != b.HeapUsed() {
		t.Errorf("heap divergence: %d vs %d", a.HeapUsed(), b.HeapUsed())
	}
	for slot := range prog.Globals {
		av, _ := a.GlobalGet(int64(slot))
		bv, _ := b.GlobalGet(int64(slot))
		if av != bv {
			t.Errorf("global %s diverged: %#x vs %#x", prog.Globals[slot].Name, av, bv)
		}
	}
}

func TestPresetsPreserveSemantics(t *testing.T) {
	presets := []struct {
		name string
		cfg  Config
	}{
		{"O0", O0()}, {"O1", O1()}, {"O2", O2()}, {"O3", O3()},
	}
	for _, tc := range corpus {
		prog, err := minic.CompileSource(tc.name, tc.src)
		if err != nil {
			t.Fatalf("%s: minic: %v", tc.name, err)
		}
		want, _, iproc := interpRun(t, prog)
		for _, p := range presets {
			t.Run(tc.name+"/"+p.name, func(t *testing.T) {
				code := mustCompileAll(t, prog, p.cfg, nil)
				got, _, cproc := runCompiled(t, prog, code)
				if got != want {
					t.Fatalf("%s result %d != interpreted %d", p.name, int64(got), int64(want))
				}
				heapAndGlobalsMatch(t, prog, iproc, cproc)
			})
		}
	}
}

// Every safe pass, applied alone and after O1, must preserve semantics on
// the whole corpus.
func TestIndividualSafePassesPreserveSemantics(t *testing.T) {
	safeSpecs := []PassSpec{
		{Name: "constfold"}, {Name: "instcombine"}, {Name: "reassoc"},
		{Name: "dce"}, {Name: "gvn"}, {Name: "simplifycfg"},
		{Name: "phisimplify"}, {Name: "sink"},
		{Name: "storeforward"}, {Name: "dse"},
		{Name: "licm"}, {Name: "licm", Params: map[string]int{"loads": 1}},
		{Name: "bce"}, {Name: "gccheckelim"},
		{Name: "inline"}, {Name: "inline", Params: map[string]int{"threshold": 500, "rounds": 3}},
		{Name: "intrinsics"},
		{Name: "unroll", Params: map[string]int{"factor": 2}},
		{Name: "unroll", Params: map[string]int{"factor": 4}},
		{Name: "unroll", Params: map[string]int{"factor": 7}},
		{Name: "unroll", Params: map[string]int{"factor": 4, "innermost-only": 0}},
		{Name: "peel"},
		{Name: "peel", Params: map[string]int{"count": 3}},
	}
	for _, tc := range corpus {
		prog, err := minic.CompileSource(tc.name, tc.src)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := interpRun(t, prog)
		for _, spec := range safeSpecs {
			name := tc.name + "/" + spec.Name
			if len(spec.Params) > 0 {
				name += "+params"
			}
			t.Run(name, func(t *testing.T) {
				cfg := O1()
				cfg.Passes = append(cfg.Passes, spec, PassSpec{Name: "dce"})
				code, err := Compile(prog, nil, cfg, nil, nil)
				if err != nil {
					t.Fatalf("compile with %s: %v", spec.Name, err)
				}
				got, _, _ := runCompiled(t, prog, code)
				if got != want {
					t.Fatalf("pass %s changed result: %d != %d", spec.Name, int64(got), int64(want))
				}
			})
		}
	}
}

func TestUnrollSpeedsUpCountedLoops(t *testing.T) {
	prog, err := minic.CompileSource("k", `
func main() int {
	int[] a = new int[512];
	int s = 0;
	for (int i = 0; i < len(a); i = i + 1) { a[i] = i; }
	for (int i = 0; i < len(a); i = i + 1) { s = s + a[i]; }
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	base := O1()
	code1 := mustCompileAll(t, prog, base, nil)
	_, c1, _ := runCompiled(t, prog, code1)

	cfg := O1()
	cfg.Passes = append(cfg.Passes,
		PassSpec{Name: "licm"},
		PassSpec{Name: "bce"},
		PassSpec{Name: "unroll", Params: map[string]int{"factor": 4}},
		PassSpec{Name: "gccheckelim"},
		PassSpec{Name: "gvn"},
		PassSpec{Name: "dce"},
	)
	code2 := mustCompileAll(t, prog, cfg, nil)
	v2, c2, _ := runCompiled(t, prog, code2)

	want, _, _ := interpRun(t, prog)
	if v2 != want {
		t.Fatalf("optimized result %d != %d", int64(v2), int64(want))
	}
	if float64(c1)/float64(c2) < 1.25 {
		t.Errorf("unroll+bce+gccheckelim speedup only %.3fx (base %d, opt %d)", float64(c1)/float64(c2), c1, c2)
	}
}

func TestUnsafeNoRemainderMiscompiles(t *testing.T) {
	// Trip count 101 % 4 != 0: dropping the remainder must change the result.
	prog, err := minic.CompileSource("r", corpus[10].src)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := interpRun(t, prog)
	cfg := O1()
	cfg.Passes = append(cfg.Passes, PassSpec{Name: "unroll",
		Params: map[string]int{"factor": 4, "no-remainder": 1}})
	code := mustCompileAll(t, prog, cfg, nil)
	proc := rt.NewProcess(prog, rt.Config{})
	x := machine.NewExec(proc, code)
	x.MaxCycles = 1_000_000_000
	got, err := x.Call(prog.Entry, nil)
	if err == nil && got == want {
		t.Error("no-remainder unroll on a non-multiple trip count produced the right answer")
	}
}

func TestUnsafeFastReassocChangesFloats(t *testing.T) {
	prog, err := minic.CompileSource("f", corpus[7].src) // float_chain
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := interpRun(t, prog)
	cfg := O1()
	cfg.Passes = append(cfg.Passes, PassSpec{Name: "reassoc", Params: map[string]int{"fast": 1}})
	code := mustCompileAll(t, prog, cfg, nil)
	got, _, _ := runCompiled(t, prog, code)
	if got == want {
		t.Skip("fast reassociation happened to round identically on this input")
	}
}

func TestUnsafeDivToShrWrongForNegatives(t *testing.T) {
	prog, err := minic.CompileSource("n", corpus[11].src) // negative_division
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := interpRun(t, prog)
	cfg := O1()
	cfg.Passes = append(cfg.Passes, PassSpec{Name: "instcombine", Params: map[string]int{"div-to-shr": 1}})
	code := mustCompileAll(t, prog, cfg, nil)
	got, _, _ := runCompiled(t, prog, code)
	if got == want {
		t.Error("div-to-shr on negative dividends produced the right answer")
	}
}

func TestVectorizeCrashesOnLoopsWithCalls(t *testing.T) {
	prog, err := minic.CompileSource("c", corpus[4].src) // calls_and_inline
	if err != nil {
		t.Fatal(err)
	}
	cfg := O0()
	cfg.Passes = append(cfg.Passes, PassSpec{Name: "vectorize"})
	_, err = Compile(prog, nil, cfg, nil, nil)
	if err == nil {
		t.Fatal("vectorize did not crash on a loop with calls")
	}
	if _, ok := errInChain[*CrashError](err); !ok {
		t.Errorf("error %v is not a CrashError", err)
	}
}

func TestHugeUnrollTimesOut(t *testing.T) {
	prog, err := minic.CompileSource("t", corpus[1].src) // nested_loops
	if err != nil {
		t.Fatal(err)
	}
	cfg := O0()
	for i := 0; i < 10; i++ {
		cfg.Passes = append(cfg.Passes, PassSpec{Name: "unroll",
			Params: map[string]int{"factor": 16, "innermost-only": 0}})
	}
	_, err = Compile(prog, nil, cfg, nil, nil)
	if err == nil {
		t.Fatal("repeated 16x unrolling did not blow the growth cap")
	}
	if _, ok := errInChain[*TimeoutError](err); !ok {
		t.Errorf("error %v is not a TimeoutError", err)
	}
}

// errInChain walks the wrap chain for a typed error.
func errInChain[T error](err error) (T, bool) {
	var zero T
	for e := err; e != nil; {
		if t, ok := e.(T); ok {
			return t, true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return zero, false
		}
		e = u.Unwrap()
	}
	return zero, false
}

func TestDevirtWithProfile(t *testing.T) {
	src := corpus[5].src // virtual_loop
	prog, err := minic.CompileSource("v", src)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := interpRun(t, prog)

	// Build the profile via an interpreted run (what §3.4 does offline).
	prof := NewProfile()
	proc := rt.NewProcess(prog, rt.Config{})
	e := interp.NewEnv(proc)
	e.Recorder = &profRecorder{prof}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(prof.Virt) == 0 {
		t.Fatal("no virtual call sites profiled")
	}

	cfg := O1()
	cfg.Passes = append(cfg.Passes, PassSpec{Name: "devirt"}, PassSpec{Name: "dce"})
	code, err := Compile(prog, nil, cfg, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, devCycles, _ := runCompiled(t, prog, code)
	if got != want {
		t.Fatalf("devirtualized result %d != %d", int64(got), int64(want))
	}
	// Devirtualization must pay off on the monomorphic loop.
	codeBase := mustCompileAll(t, prog, O1(), nil)
	_, baseCycles, _ := runCompiled(t, prog, codeBase)
	if devCycles >= baseCycles {
		t.Errorf("devirt did not speed up: %d >= %d cycles", devCycles, baseCycles)
	}
}

type profRecorder struct{ p *Profile }

func (r *profRecorder) Store(a mem.Addr) {}
func (r *profRecorder) Dispatch(s interp.CallSite, c dex.ClassID) {
	r.p.Record(SiteKey{Method: s.Method, PC: s.PC}, c)
}

func TestO3FasterThanO0OnCorpus(t *testing.T) {
	for _, tc := range corpus {
		prog, err := minic.CompileSource(tc.name, tc.src)
		if err != nil {
			t.Fatal(err)
		}
		code0 := mustCompileAll(t, prog, O0(), nil)
		_, c0, _ := runCompiled(t, prog, code0)
		code3 := mustCompileAll(t, prog, O3(), nil)
		_, c3, _ := runCompiled(t, prog, code3)
		if c3 >= c0 {
			t.Errorf("%s: O3 (%d cycles) not faster than O0 (%d)", tc.name, c3, c0)
		}
	}
}

func BenchmarkCompileO2(b *testing.B) {
	prog, err := minic.CompileSource("bench", corpus[1].src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(prog, nil, O2(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompiledNestedLoops(b *testing.B) {
	prog, err := minic.CompileSource("bench", corpus[1].src)
	if err != nil {
		b.Fatal(err)
	}
	code, err := Compile(prog, nil, O2(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc := rt.NewProcess(prog, rt.Config{})
		x := machine.NewExec(proc, code)
		if _, err := x.Call(prog.Entry, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoopLatches: every latch is an in-loop predecessor of the header.
func TestLoopLatches(t *testing.T) {
	prog, err := minic.CompileSource("t", `
func main() int {
	int s = 0;
	for (int i = 0; i < 10; i = i + 1) {
		for (int j = 0; j < i; j = j + 1) { s = s + j; }
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
	f.Recompute()
	loops := f.Loops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	for _, l := range loops {
		latches := l.Latches()
		if len(latches) == 0 {
			t.Fatalf("loop at b%d has no latches", l.Head.ID)
		}
		for _, lt := range latches {
			if !l.Contains(lt) {
				t.Errorf("latch b%d outside its loop", lt.ID)
			}
			found := false
			for _, s := range lt.Succs {
				if s == l.Head {
					found = true
				}
			}
			if !found {
				t.Errorf("latch b%d does not branch to the header", lt.ID)
			}
		}
	}
}

// TestAnalysisContract checks the CFG analyses over the differential corpus
// after an O3 pipeline: Dominates agrees with a walk up the IDom chain, each
// loop's Blocks are exactly the members of Blocks in reverse postorder, and a
// block created after Loops belongs to no loop and dominates only itself.
// DominanceOf, which VerifyIR and tv use where Recompute never runs, must
// agree with Dominates, and with the IDom chain on a copy whose Blocks are out
// of reverse postorder and include an unreachable block.
func TestAnalysisContract(t *testing.T) {
	for _, c := range corpus {
		prog, err := minic.CompileSource(c.name, c.src)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range prog.Methods {
			if m.Uncompilable {
				continue
			}
			f, err := BuildSSA(prog, dex.MethodID(i))
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range O3().Passes {
				if err := RunPassForTest(f, spec.Name, spec.Params); err != nil {
					t.Fatalf("%s %s: %v", c.name, spec.Name, err)
				}
			}
			f.Recompute()
			idomWalk := func(a, b *Block) bool {
				for x := b; x != nil; x = x.IDom {
					if x == a {
						return true
					}
				}
				return false
			}
			d := DominanceOf(f)
			for _, a := range f.Blocks {
				for _, b := range f.Blocks {
					walk := idomWalk(a, b)
					if f.Dominates(a, b) != walk {
						t.Fatalf("%s/%s: Dominates(b%d, b%d) = %t, IDom chain says %t", c.name, m.Name, a.ID, b.ID, !walk, walk)
					}
					if d.Dominates(a, b) != walk {
						t.Fatalf("%s/%s: DominanceOf: Dominates(b%d, b%d) = %t, IDom chain says %t", c.name, m.Name, a.ID, b.ID, !walk, walk)
					}
				}
			}
			loops := f.Loops()
			nb := f.NewBlock()
			for _, l := range loops {
				var want []*Block
				for _, b := range f.Blocks {
					if l.Contains(b) {
						want = append(want, b)
					}
				}
				if len(want) != len(l.Blocks) {
					t.Fatalf("%s/%s: loop at b%d lists %d blocks, contains %d", c.name, m.Name, l.Head.ID, len(l.Blocks), len(want))
				}
				for j := range want {
					if want[j] != l.Blocks[j] {
						t.Fatalf("%s/%s: loop at b%d: Blocks[%d] is b%d, want b%d", c.name, m.Name, l.Head.ID, j, l.Blocks[j].ID, want[j].ID)
					}
				}
				if l.Contains(nb) {
					t.Errorf("%s/%s: loop at b%d contains a block created after Loops", c.name, m.Name, l.Head.ID)
				}
			}
			if !f.Dominates(nb, nb) || f.Dominates(f.Blocks[0], nb) || f.Dominates(nb, f.Blocks[0]) {
				t.Errorf("%s/%s: a block created after Recompute must dominate only itself", c.name, m.Name)
			}
			// The copy: the entry, then the other blocks in reverse, then an
			// unreachable block with an edge into the last one.
			u := f.NewBlock()
			u.AppendRaw(f.NewValue(OpJump, TVoid))
			AddEdge(u, f.Blocks[len(f.Blocks)-1])
			g := &Function{Name: f.Name, Blocks: []*Block{f.Blocks[0]}}
			for i := len(f.Blocks) - 1; i > 0; i-- {
				g.Blocks = append(g.Blocks, f.Blocks[i])
			}
			g.Blocks = append(g.Blocks, u)
			d = DominanceOf(g)
			for _, a := range g.Blocks {
				if d.Reachable(a) != (a != u) {
					t.Fatalf("%s/%s: shuffled copy: Reachable(b%d) = %t", c.name, m.Name, a.ID, d.Reachable(a))
				}
				for _, b := range g.Blocks {
					if walk := idomWalk(a, b); d.Dominates(a, b) != walk {
						t.Fatalf("%s/%s: shuffled copy: Dominates(b%d, b%d) = %t, IDom chain says %t", c.name, m.Name, a.ID, b.ID, !walk, walk)
					}
				}
			}
		}
	}
}

// TestCondInvertInvolution: inverting twice is the identity, and the
// inverted condition evaluates to the logical negation on every pair.
func TestCondInvertInvolution(t *testing.T) {
	eval := func(c Cond, a, b int64) bool {
		switch c {
		case CondEq:
			return a == b
		case CondNe:
			return a != b
		case CondLt:
			return a < b
		case CondLe:
			return a <= b
		case CondGt:
			return a > b
		case CondGe:
			return a >= b
		}
		t.Fatalf("unknown cond %d", c)
		return false
	}
	conds := []Cond{CondEq, CondNe, CondLt, CondLe, CondGt, CondGe}
	pairs := [][2]int64{{0, 0}, {1, 2}, {2, 1}, {-5, 5}, {7, 7}, {-3, -9}}
	for _, c := range conds {
		if c.Invert().Invert() != c {
			t.Errorf("%v not an involution", c)
		}
		for _, p := range pairs {
			if eval(c, p[0], p[1]) == eval(c.Invert(), p[0], p[1]) {
				t.Errorf("%v and %v agree on (%d,%d)", c, c.Invert(), p[0], p[1])
			}
		}
		if c.String() == "" || c.Invert().String() == "" {
			t.Error("empty cond name")
		}
	}
}

// TestFunctionStringRendersEveryOp: the debug printer must cover every
// opcode a realistic function produces without panicking or emitting
// empty mnemonics.
func TestFunctionStringRendersEveryOp(t *testing.T) {
	prog, err := minic.CompileSource("t", `
class P { func f(int x) int { return x + 1; } }
func helper(float v) float { return v * 2.0; }
func main() int {
	P p = new P();
	int[] xs = new int[16];
	float acc = 0.0;
	for (int i = 0; i < len(xs); i = i + 1) {
		xs[i] = p.f(i) % 7;
		acc = acc + helper(itof(xs[i])) / 3.0;
		if (xs[i] == 3) { continue; }
	}
	return ftoi(acc) + xs[5];
}`)
	if err != nil {
		t.Fatal(err)
	}
	f, err := BuildSSA(prog, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	s := f.String()
	for _, frag := range []string{"func main", "b0:", "phi", "; succs:", "; preds:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered function missing %q:\n%s", frag, s)
		}
	}
	// Every value line must carry a mnemonic (no "mop"-style fallbacks).
	if strings.Contains(s, "op(") {
		t.Errorf("unknown-op fallback in:\n%s", s)
	}
}

// recomputeTracer checks what the pipeline hands each observer: every
// application starts from the state a full Recompute leaves, and every
// record's After hashes the recomputed function.
type recomputeTracer struct {
	t    *testing.T
	apps []PassApplication
}

func (r *recomputeTracer) BeforePass(f *Function, app *PassApplication) bool {
	if want, _ := fullRecompute(f); AnalysisState(f) != want {
		r.t.Errorf("%s starts from an unrecomputed CFG:\n%s\nwant:\n%s", app.Spec.Name, AnalysisState(f), want)
	}
	return true
}

func (r *recomputeTracer) AfterPass(f *Function, app *PassApplication) {
	if _, want := fullRecompute(f); app.After != want {
		r.t.Errorf("%s: record hashes %#x, the recomputed function %#x", app.Spec.Name, app.After, want)
	}
	r.apps = append(r.apps, *app)
}

// TestPipelineRecomputes runs a pass that splits the entry's first edge,
// appending the new block out of reverse postorder, and never recomputes:
// the pipeline must, before the record is hashed and the next pass runs,
// and also when the pass fails.
func TestPipelineRecomputes(t *testing.T) {
	errSplit := errors.New("split and fail")
	defer RegisterForTesting(&PassInfo{
		Name:   "splitentry",
		Params: []ParamSpec{{Name: "fail", Min: 0, Max: 1}},
		CFG:    true,
		Run: func(f *Function, _ *PassContext, params map[string]int) error {
			splitEdge(f, f.Blocks[0], 0)
			if params["fail"] == 1 {
				return errSplit
			}
			return nil
		},
	})()
	prog, err := minic.CompileSource(corpus[1].name, corpus[1].src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		passes []PassSpec
		err    error
	}{
		{[]PassSpec{{Name: "splitentry"}, {Name: "dce"}}, nil},
		{[]PassSpec{{Name: "splitentry", Params: map[string]int{"fail": 1}}}, errSplit},
	} {
		tr := &recomputeTracer{t: t}
		cfg := Config{Passes: tc.passes, Trace: tr}
		if _, err := CompileMethod(prog, prog.Entry, cfg, nil, nil); err != tc.err {
			t.Fatalf("compile: %v, want %v", err, tc.err)
		}
		if len(tr.apps) != len(tc.passes) || !tr.apps[0].Fired {
			t.Fatalf("%d applications, want %d, the first changing the IR", len(tr.apps), len(tc.passes))
		}
	}
}
