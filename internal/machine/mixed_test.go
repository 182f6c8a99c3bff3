package machine

import (
	"errors"
	"slices"
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/interp"
	"replayopt/internal/rt"
)

// stackSampler records the innermost method of every sample, -1 for an
// empty stack.
type stackSampler struct{ inner []dex.MethodID }

func (s *stackSampler) Sample(stack []dex.MethodID, _ dex.NativeID) {
	id := dex.MethodID(-1)
	if len(stack) > 0 {
		id = stack[len(stack)-1]
	}
	s.inner = append(s.inner, id)
}

// mixedProgram is a compiled main (method 0) that calls the uncompiled
// method 1 once with argument 5. Method 1 sums 0..n-1 in bytecode, so it
// runs on the interpreter across the bridge.
func mixedProgram() (*dex.Program, *Program) {
	prog := &dex.Program{Name: "mixed", Methods: []*dex.Method{
		{Name: "main", Class: dex.NoClass, NumRegs: 2, Ret: dex.KindInt},
		{Name: "sum", Class: dex.NoClass, NumRegs: 4, NumArgs: 1, Params: []dex.Kind{dex.KindInt}, Ret: dex.KindInt,
			Uncompilable: true, Code: []dex.Insn{
				{Op: dex.OpConstInt, A: 1, Imm: 0},
				{Op: dex.OpConstInt, A: 2, Imm: 0},
				{Op: dex.OpConstInt, A: 3, Imm: 1},
				{Op: dex.OpIfGe, B: 2, C: 0, Imm: 7},
				{Op: dex.OpAddInt, A: 1, B: 1, C: 2},
				{Op: dex.OpAddInt, A: 2, B: 2, C: 3},
				{Op: dex.OpGoto, Imm: 3},
				{Op: dex.OpReturn, A: 1},
			}},
	}, Natives: dex.StdNatives()}
	prog.BuildIndex()
	code := NewProgram()
	code.Fns[0] = &Fn{Method: 0, NumRegs: 2, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 5},
		{Op: Call, A: 1, Sym: 1, Args: []int{0}},
		{Op: Ret, A: 1},
	}}
	return prog, code
}

// recursiveProgram is a compiled method 0 that recurses n times before it
// calls the uncompiled method 1, which counts its entries in global 0 and
// recurses without bound.
func recursiveProgram() (*dex.Program, *Program) {
	prog := &dex.Program{Name: "deep", Methods: []*dex.Method{
		{Name: "down", Class: dex.NoClass, NumRegs: 1, NumArgs: 1, Params: []dex.Kind{dex.KindInt}, Ret: dex.KindVoid},
		{Name: "count", Class: dex.NoClass, NumRegs: 2, Ret: dex.KindVoid, Uncompilable: true, Code: []dex.Insn{
			{Op: dex.OpSLoadInt, A: 0, Imm: 0},
			{Op: dex.OpConstInt, A: 1, Imm: 1},
			{Op: dex.OpAddInt, A: 0, B: 0, C: 1},
			{Op: dex.OpSStoreInt, A: 0, Imm: 0},
			{Op: dex.OpInvokeStatic, Sym: 1},
			{Op: dex.OpReturnVoid},
		}},
	}, Globals: []dex.Global{{Name: "entries", Kind: dex.KindInt}}, Natives: dex.StdNatives()}
	prog.BuildIndex()
	code := NewProgram()
	code.Fns[0] = &Fn{Method: 0, NumRegs: 1, Code: []Insn{
		{Op: Br, Cond: CondEq, B: 0, C: -1, Disp: 0, Imm: 4},
		{Op: Sub, A: 0, B: 0, C: -1, Disp: 1},
		{Op: Call, A: -1, Sym: 0, Args: []int{0}},
		{Op: RetVoid},
		{Op: Call, A: -1, Sym: 1},
		{Op: RetVoid},
	}}
	return prog, code
}

// TestMixedModeClock runs compiled code across the interpreter bridge on the
// one cycle clock: the callee's cycles, budget, samples and frames are the
// caller's.
func TestMixedModeClock(t *testing.T) {
	run := func(maxCycles, period uint64) (*Exec, *stackSampler, uint64, error) {
		prog, code := mixedProgram()
		x := NewExec(rt.NewProcess(prog, rt.Config{}), code)
		x.MaxCycles = maxCycles
		s := &stackSampler{}
		if period > 0 {
			x.SamplePeriod, x.Sampler = period, s
		}
		v, err := x.Call(0, nil)
		return x, s, v, err
	}

	x, _, v, err := run(0, 0)
	if err != nil || v != 10 {
		t.Fatalf("mixed run: %d, %v; want 10", v, err)
	}
	if x.Cycles != 278 {
		t.Errorf("mixed run took %d cycles, want 278", x.Cycles)
	}

	// Main runs cycles [0, 61) up to the bridge and sum runs [61, 276), so
	// the sample due at 250 falls inside sum, which is shorter than one
	// period: it is seen only if the callee samples on the caller's grid.
	x, s, _, err := run(0, 250)
	if err != nil {
		t.Fatal(err)
	}
	if want := []dex.MethodID{0, 1}; !slices.Equal(s.inner, want) {
		t.Errorf("samples named %v, want %v", s.inner, want)
	}
	if x.Cycles != 278 {
		t.Errorf("sampled run took %d cycles, want 278", x.Cycles)
	}

	if _, _, _, err := run(100, 0); !errors.Is(err, interp.ErrTimeout) {
		t.Errorf("budget spent inside the callee: %v, want %v", err, interp.ErrTimeout)
	}

	// 101 compiled frames of down leave 411 of the 512 for count.
	prog, code := recursiveProgram()
	proc := rt.NewProcess(prog, rt.Config{})
	if _, err := NewExec(proc, code).Call(0, []uint64{100}); !errors.Is(err, interp.ErrStackOverflow) {
		t.Fatalf("unbounded recursion: %v, want %v", err, interp.ErrStackOverflow)
	}
	if n, _ := proc.GlobalGet(0); n != 512-101 {
		t.Errorf("count entered %d frames below 101 compiled ones, want %d", n, 512-101)
	}
}
