package lir

import (
	"testing"

	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/rt"
)

const unswitchSrc = `
global int mode;
func work(int n, int m) int {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) {
		if (m > 5) { s = s + i * 3; }
		else { s = s + i - 1; }
		s = s % 100003;
	}
	return s;
}
func main() int {
	mode = 7;
	return work(40, mode) * 1000 + work(33, 2);
}
`

func TestUnswitchPreservesSemantics(t *testing.T) {
	prog, err := minic.CompileSource("u", unswitchSrc)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(prog, nil, O1(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc := rt.NewProcess(prog, rt.Config{})
	x := machine.NewExec(proc, base)
	x.MaxCycles = 100_000_000
	want, err := x.Call(prog.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg := O1()
	cfg.Passes = append(cfg.Passes, PassSpec{Name: "unswitch"}, PassSpec{Name: "gccheckelim"}, PassSpec{Name: "dce"}, PassSpec{Name: "simplifycfg"})
	code, err := Compile(prog, nil, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc2 := rt.NewProcess(prog, rt.Config{})
	x2 := machine.NewExec(proc2, code)
	x2.MaxCycles = 100_000_000
	got, err := x2.Call(prog.Entry, nil)
	if err != nil {
		t.Fatalf("unswitched run: %v", err)
	}
	if got != want {
		t.Fatalf("unswitch changed result: %d != %d", int64(got), int64(want))
	}
	// The per-iteration branch should be gone: the unswitched version
	// executes fewer cycles.
	if x2.Cycles >= x.Cycles {
		t.Errorf("unswitch did not pay off: %d >= %d cycles", x2.Cycles, x.Cycles)
	}
}

func TestUnswitchIRValid(t *testing.T) {
	prog, err := minic.CompileSource("u", unswitchSrc)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := prog.MethodByName("work")
	f, err := BuildSSA(prog, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunPassForTest(f, "unswitch", nil); err != nil {
		t.Fatal(err)
	}
	if err := VerifyIR(f); err != nil {
		t.Fatalf("IR invalid after unswitch: %v", err)
	}
	// Expect two loops now.
	f.Recompute()
	if n := len(f.Loops()); n != 2 {
		t.Errorf("%d loops after unswitch, want 2", n)
	}
}

// TestUnswitchKeepsNoTrap checks that both loop versions keep the NoTrap mark
// rangecheckelim put on the loop's remainder by a nonzero constant.
func TestUnswitchKeepsNoTrap(t *testing.T) {
	prog, err := minic.CompileSource("u", unswitchSrc)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := prog.MethodByName("work")
	f, err := BuildSSA(prog, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"rangecheckelim", "unswitch"} {
		if err := RunPassForTest(f, pass, nil); err != nil {
			t.Fatal(err)
		}
	}
	rems, marked := 0, 0
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op == OpRem {
				rems++
				if v.NoTrap {
					marked++
				}
			}
		}
	}
	if rems != 2 || marked != 2 {
		t.Errorf("%d of %d remainders NoTrap after unswitch, want 2 of 2", marked, rems)
	}
}
