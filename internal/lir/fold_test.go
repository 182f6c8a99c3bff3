package lir

import (
	"fmt"
	"testing"

	"replayopt/internal/interp"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/rt"
)

// Constant-folding and algebraic-simplification coverage: every foldable
// operator, checked against interpreter ground truth, plus the trap-
// preservation rules folding must respect.

// interpGround runs src in the interpreter (the semantic oracle).
func interpGround(t *testing.T, src string) uint64 {
	t.Helper()
	prog, err := minic.CompileSource("t", src)
	if err != nil {
		t.Fatal(err)
	}
	e := interp.NewEnv(rt.NewProcess(prog, rt.Config{}))
	e.MaxCycles = 200_000_000
	v, err := e.Run()
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return v
}

// foldPipeline is an aggressive scalar-only pipeline: constant folding,
// instcombine, reassociation, GVN, DCE — run twice to reach a fixpoint.
func foldPipeline() []PassSpec {
	one := []PassSpec{
		{Name: "constfold"}, {Name: "instcombine"}, {Name: "reassoc"},
		{Name: "gvn"}, {Name: "dce"}, {Name: "simplifycfg"},
	}
	return append(append([]PassSpec{}, one...), one...)
}

func TestFoldIntOperators(t *testing.T) {
	// Constant operands force foldValue through every integer case; the
	// extra variable term keeps the function from collapsing entirely.
	cases := []string{
		"7 + 3", "7 - 3", "7 * 3", "45 / 7", "45 % 7",
		"12 & 10", "12 | 10", "12 ^ 10", "3 << 4", "1024 >> 3",
		"-(21)", "0 - 9223372036854775807",
		"(1 << 62) * 4",    // overflow wraps like the runtime
		"100 / 3 * 3 + 17", // mixed chain
	}
	for i, expr := range cases {
		src := fmt.Sprintf(`func main() int { int v = %s; return v; }`, expr)
		want := interpGround(t, src)
		got := runWith(t, src, foldPipeline()...)
		if got != want {
			t.Errorf("case %d (%s): folded %d, interp %d", i, expr, int64(got), int64(want))
		}
	}
}

func TestFoldFloatOperators(t *testing.T) {
	cases := []string{
		"2.5 + 0.25", "2.5 - 0.25", "2.5 * 4.0", "10.0 / 4.0",
		"-(3.5)", "itof(7) * 2.0", "0.1 + 0.2", // not 0.3: folding must match IEEE exactly
	}
	for i, expr := range cases {
		src := fmt.Sprintf(`func main() int { float v = %s; return ftoi(v * 1000000.0); }`, expr)
		want := interpGround(t, src)
		got := runWith(t, src, foldPipeline()...)
		if got != want {
			t.Errorf("case %d (%s): folded %d, interp %d", i, expr, int64(got), int64(want))
		}
	}
}

func TestFoldComparisonsAndBranches(t *testing.T) {
	// Constant conditions exercise Cond.Eval + simplifycfg branch folding in
	// both directions and all six relations, on ints and floats.
	rels := []string{"<", "<=", ">", ">=", "==", "!="}
	for _, rel := range rels {
		for _, operands := range [][2]string{{"3", "5"}, {"5", "3"}, {"4", "4"}} {
			src := fmt.Sprintf(`func main() int {
	int r = 0;
	if (%s %s %s) { r = 100; } else { r = 200; }
	return r;
}`, operands[0], rel, operands[1])
			want := interpGround(t, src)
			got := runWith(t, src, foldPipeline()...)
			if got != want {
				t.Errorf("%s %s %s: folded %d, interp %d",
					operands[0], rel, operands[1], int64(got), int64(want))
			}
			fsrc := fmt.Sprintf(`func main() int {
	int r = 0;
	if (%s.0 %s %s.0) { r = 100; } else { r = 200; }
	return r;
}`, operands[0], rel, operands[1])
			want = interpGround(t, fsrc)
			got = runWith(t, fsrc, foldPipeline()...)
			if got != want {
				t.Errorf("float %s %s %s: folded %d, interp %d",
					operands[0], rel, operands[1], int64(got), int64(want))
			}
		}
	}
}

func TestFoldPreservesDivTrap(t *testing.T) {
	// A constant division by zero must NOT be folded away: the runtime trap
	// is the program's observable behaviour.
	src := `
func main() int {
	int z = 0;
	if (1 == 2) { z = 1; }
	return 10 / z;
}`
	prog, err := minic.CompileSource("t", src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := O1()
	cfg.Passes = append(cfg.Passes, foldPipeline()...)
	code, err := Compile(prog, nil, cfg, nil, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	proc := rt.NewProcess(prog, rt.Config{})
	x := machine.NewExec(proc, code)
	x.MaxCycles = 10_000_000
	if _, err := x.Call(prog.Entry, nil); err == nil {
		t.Fatal("folded pipeline lost the divide-by-zero trap")
	}
}

// TestRangePassesPreserveDivTrap: with the range passes in the pipeline, a
// divide whose divisor is NOT provably nonzero must keep its zero-trap guard
// (ir.go's trap-semantics contract). The range analysis sees z ∈ [0, 0] here,
// so rangecheckelim must refuse the NoTrap mark and the runtime trap survives
// the full fold pipeline.
func TestRangePassesPreserveDivTrap(t *testing.T) {
	src := `
func main() int {
	int z = 0;
	if (1 == 2) { z = 3; }
	return 10 / z;
}`
	prog, err := minic.CompileSource("t", src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := O1()
	cfg.Passes = append(cfg.Passes,
		PassSpec{Name: "rangecheckelim"},
		PassSpec{Name: "rangebranch"},
		PassSpec{Name: "rangestrength"})
	cfg.Passes = append(cfg.Passes, foldPipeline()...)
	code, err := Compile(prog, nil, cfg, nil, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	proc := rt.NewProcess(prog, rt.Config{})
	x := machine.NewExec(proc, code)
	x.MaxCycles = 10_000_000
	if _, err := x.Call(prog.Entry, nil); err == nil {
		t.Fatal("range passes lost the divide-by-zero trap")
	}

	// The flip side: a provably nonzero divisor lowers to the unguarded
	// divide and must still compute the exact same quotients.
	ok := `
func main() int {
	int acc = 0;
	for (int i = 1; i < 50; i = i + 1) { acc = acc + 10000 / i + 10000 % i; }
	return acc;
}`
	want := interpGround(t, ok)
	got := runWith(t, ok,
		PassSpec{Name: "rangecheckelim"},
		PassSpec{Name: "rangebranch"},
		PassSpec{Name: "rangestrength"})
	if got != want {
		t.Errorf("unguarded divide changed the result: %d, interp %d", int64(got), int64(want))
	}
}

func TestFoldConversionEdges(t *testing.T) {
	cases := []string{
		`func main() int { return ftoi(itof(123456789)); }`,
		`func main() int { return ftoi(2.99); }`,  // truncation toward zero
		`func main() int { return ftoi(-2.99); }`, // negative truncation
	}
	for i, src := range cases {
		want := interpGround(t, src)
		got := runWith(t, src, foldPipeline()...)
		if got != want {
			t.Errorf("case %d: folded %d, interp %d", i, int64(got), int64(want))
		}
	}
}

// TestReassocEnablesFolding: reassociation must regroup (x + 1) + 2 so the
// constants fold, without changing the value.
func TestReassocEnablesFolding(t *testing.T) {
	src := `
func main() int {
	int acc = 0;
	for (int x = 0; x < 20; x = x + 1) {
		acc = acc + ((x + 1) + 2) + ((3 + x) + 4);
	}
	return acc;
}`
	want := interpGround(t, src)
	got := runWith(t, src, foldPipeline()...)
	if got != want {
		t.Errorf("reassoc pipeline: %d, interp %d", int64(got), int64(want))
	}
}

// TestFastReassocIsUnsafeByConstruction: the fast-math variant may change
// float results; it must never change *integer* results.
func TestFastReassocIntSafe(t *testing.T) {
	src := `
func main() int {
	int acc = 7;
	for (int x = 1; x < 30; x = x + 1) { acc = acc * 3 + x * 5 - 2; acc = acc % 1000003; }
	return acc;
}`
	want := interpGround(t, src)
	got := runWith(t, src, PassSpec{Name: "reassoc", Params: map[string]int{"fast": 1}})
	if got != want {
		t.Errorf("fast reassoc changed an integer-only result: %d != %d", int64(got), int64(want))
	}
}
