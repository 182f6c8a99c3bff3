package progen

import (
	"math/rand"
	"testing"

	"replayopt/internal/aot"
	"replayopt/internal/dex"
	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/rt"
)

// Generator sanity, and the tier checks that need nothing but the compilers:
// generated programs must compute the interpreter's result AOT-compiled
// (whole and mixed-mode) and LIR-compiled at every preset. The wider
// differential checks (strict tv on every compile, every pass alone, random
// safe pipelines, failure pinning and shrinking) live in the repo's
// differential matrix, pass_differential_test.go at the module root.

func interpRun(t *testing.T, prog *dex.Program) uint64 {
	t.Helper()
	e := interp.NewEnv(rt.NewProcess(prog, rt.Config{}))
	e.MaxCycles = 2_000_000_000
	v, err := e.Run()
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return v
}

func runCode(t *testing.T, prog *dex.Program, code *machine.Program, label string) uint64 {
	t.Helper()
	x := machine.NewExec(rt.NewProcess(prog, rt.Config{}), code)
	x.MaxCycles = 2_000_000_000
	v, err := x.Call(prog.Entry, nil)
	if err != nil {
		t.Fatalf("%s run: %v", label, err)
	}
	return v
}

func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		src := Generate(rand.New(rand.NewSource(seed)), Default())
		if _, err := minic.CompileSource("gen", src); err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v\n%s", seed, err, src)
		}
	}
}

func TestDifferentialAcrossTiers(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		src := Generate(rand.New(rand.NewSource(seed*131+7)), Default())
		prog, err := minic.CompileSource("gen", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := interpRun(t, prog)
		android, err := aot.Compile(prog)
		if err != nil {
			t.Fatalf("seed %d: aot: %v", seed, err)
		}
		if got := runCode(t, prog, android, "aot"); got != want {
			t.Fatalf("seed %d: aot result %d != %d\n%s", seed, int64(got), int64(want), src)
		}
		for _, preset := range []string{"O0", "O1", "O2", "O3"} {
			cfg, _ := lir.Preset(preset)
			code, err := lir.Compile(prog, nil, cfg, nil, nil)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, preset, err)
			}
			if got := runCode(t, prog, code, preset); got != want {
				t.Fatalf("seed %d: %s result %d != %d\n%s", seed, preset, int64(got), int64(want), src)
			}
		}
	}
}

// AOT must also agree when only some methods are compiled and the rest stay
// interpreted (mixed mode). The compiled half is every even method ID, so a
// seed always runs the same split.
func TestDifferentialMixedMode(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		src := Generate(rand.New(rand.NewSource(seed*613+1)), Default())
		prog, err := minic.CompileSource("gen", src)
		if err != nil {
			t.Fatal(err)
		}
		want := interpRun(t, prog)
		full, err := aot.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		half := machine.NewProgram()
		for id, fn := range full.Fns {
			if id%2 == 0 {
				half.Fns[id] = fn
			}
		}
		if got := runCode(t, prog, half, "mixed"); got != want {
			t.Fatalf("seed %d: mixed-mode result %d != %d\n%s", seed, int64(got), int64(want), src)
		}
	}
}

// A program depends on its seed alone, not on what was generated before it,
// so a seed reproduces and parallel generation shares no state.
func TestGenerateDependsOnSeedOnly(t *testing.T) {
	gen := func(seed int64) string { return Generate(rand.New(rand.NewSource(seed)), Default()) }
	first := gen(3)
	gen(4)
	if again := gen(3); again != first {
		t.Fatalf("seed 3 generated two different programs:\n%s\n---\n%s", first, again)
	}
}

// The disassembler must render every generated program without panicking,
// and validation must accept everything the frontend emits.
func TestGeneratedProgramsValidateAndDisassemble(t *testing.T) {
	for seed := int64(50); seed < 70; seed++ {
		src := Generate(rand.New(rand.NewSource(seed)), Default())
		prog, err := minic.CompileSource("gen", src)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if text := prog.DisassembleAll(); len(text) == 0 {
			t.Fatal("empty disassembly")
		}
	}
}
