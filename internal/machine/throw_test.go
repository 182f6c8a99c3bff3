package machine_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"replayopt/internal/aot"
	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/rt"
)

// throwPressureSrc ends a function with 25 live temporaries in `throw v + u`,
// so the thrown value's virtual register lies past the physical registers.
func throwPressureSrc() string {
	var sb strings.Builder
	sb.WriteString("func boom(int a) int {\n")
	const n = 25
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\tint t%d = a * %d + %d;\n", i, 2*i+3, i*i+1)
	}
	sb.WriteString("\tint v = t0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, " + t%d * %d", i, i+1)
	}
	sb.WriteString(";\n\tint u = t0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, " ^ t%d", i)
	}
	sb.WriteString(";\n\tthrow v + u;\n}\n")
	sb.WriteString("func main() int { return boom(7); }\n")
	return sb.String()
}

// TestThrowUnderRegisterPressure checks that register allocation rewrites a
// throw's operand: the interpreter, the baseline compiler and lir at O0 must
// raise the same exception value.
func TestThrowUnderRegisterPressure(t *testing.T) {
	prog, err := minic.CompileSource("throwpressure", throwPressureSrc())
	if err != nil {
		t.Fatal(err)
	}
	thrown := func(tier string, err error) uint64 {
		t.Helper()
		var te *interp.ThrownError
		if !errors.As(err, &te) {
			t.Fatalf("%s: want a thrown exception, got %v", tier, err)
		}
		return te.Value
	}
	e := interp.NewEnv(rt.NewProcess(prog, rt.Config{}))
	e.MaxCycles = 10_000_000
	_, err = e.Run()
	want := thrown("interpreter", err)

	base, err := aot.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	o0, err := lir.Compile(prog, nil, lir.O0(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tier string
		code *machine.Program
	}{{"aot", base}, {"lir O0", o0}} {
		x := machine.NewExec(rt.NewProcess(prog, rt.Config{}), c.code)
		x.MaxCycles = 10_000_000
		_, err := x.Call(prog.Entry, nil)
		if got := thrown(c.tier, err); got != want {
			t.Errorf("%s threw %#x, the interpreter %#x", c.tier, got, want)
		}
	}
}
