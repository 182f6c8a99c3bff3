package machine

import (
	"testing"
	"testing/quick"

	"replayopt/internal/dex"
	"replayopt/internal/rt"
)

// tinyProgram wraps a hand-written machine function as the whole program.
func tinyProgram(fn *Fn) (*dex.Program, *Program) {
	prog := &dex.Program{Name: "t", Methods: []*dex.Method{{
		Name: "main", Class: dex.NoClass, NumRegs: 1, Ret: dex.KindInt,
		Code: []dex.Insn{{Op: dex.OpReturnVoid}},
	}}, Natives: dex.StdNatives()}
	prog.BuildIndex()
	fn.Method = 0
	code := NewProgram()
	code.Fns[0] = fn
	return prog, code
}

func runFn(t *testing.T, fn *Fn, args ...uint64) uint64 {
	t.Helper()
	prog, code := tinyProgram(fn)
	proc := rt.NewProcess(prog, rt.Config{})
	x := NewExec(proc, code)
	x.MaxCycles = 10_000_000
	v, err := x.Call(0, args)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestAluAndImmediates(t *testing.T) {
	fn := &Fn{NumRegs: 4, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 10},
		{Op: Add, A: 1, B: 0, C: -1, Disp: 5}, // literal-fused form
		{Op: Mul, A: 2, B: 1, C: 0},
		{Op: Sub, A: 3, B: 2, C: 1},
		{Op: Ret, A: 3},
	}}
	if got := runFn(t, fn); int64(got) != 15*10-15 {
		t.Errorf("got %d", int64(got))
	}
}

func TestMaddMatchesMulAdd(t *testing.T) {
	f := func(a, b, c int64) bool {
		fn := &Fn{NumRegs: 4, Code: []Insn{
			{Op: Ldi, A: 0, Imm: a},
			{Op: Ldi, A: 1, Imm: b},
			{Op: Ldi, A: 2, Imm: c},
			{Op: Madd, A: 3, B: 0, C: 1, D: 2},
			{Op: Ret, A: 3},
		}}
		return int64(runFn(t, fn)) == a*b+c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBranchHintsOnlyAffectCost(t *testing.T) {
	build := func(hint Hint) *Fn {
		return &Fn{NumRegs: 2, Code: []Insn{
			{Op: Ldi, A: 0, Imm: 1},
			{Op: Br, Cond: CondEq, B: 0, C: -1, Disp: 1, Imm: 4, Hint: hint},
			{Op: Ldi, A: 1, Imm: 111},
			{Op: Ret, A: 1},
			{Op: Ldi, A: 1, Imm: 222},
			{Op: Ret, A: 1},
		}}
	}
	prog, codeT := tinyProgram(build(HintTaken))
	procT := rt.NewProcess(prog, rt.Config{})
	xT := NewExec(procT, codeT)
	vT, _ := xT.Call(0, nil)

	_, codeN := tinyProgram(build(HintNotTaken))
	procN := rt.NewProcess(prog, rt.Config{})
	xN := NewExec(procN, codeN)
	vN, _ := xN.Call(0, nil)

	if vT != vN || vT != 222 {
		t.Fatalf("hints changed results: %d vs %d", vT, vN)
	}
	if xN.Cycles <= xT.Cycles {
		t.Errorf("mispredicted branch not slower: %d <= %d", xN.Cycles, xT.Cycles)
	}
}

func TestFuseLiteralsPreservesSemanticsAndShrinks(t *testing.T) {
	fn := &Fn{NumRegs: 8, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 7},
		{Op: Ldi, A: 1, Imm: 3},
		{Op: Add, A: 2, B: 0, C: 1},
		{Op: Ldi, A: 3, Imm: 4},
		{Op: Mul, A: 4, B: 2, C: 3},
		{Op: Ret, A: 4},
	}}
	before := len(fn.Code)
	fuseLiterals(fn)
	if len(fn.Code) >= before {
		t.Errorf("literal fusing did not shrink code: %d -> %d", before, len(fn.Code))
	}
	if got := runFn(t, fn); int64(got) != (7+3)*4 {
		t.Errorf("after fusing got %d", int64(got))
	}
}

func TestFuseMaddPeephole(t *testing.T) {
	fn := &Fn{NumRegs: 8, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 6},
		{Op: Ldi, A: 1, Imm: 7},
		{Op: Ldi, A: 2, Imm: 5},
		{Op: Mul, A: 3, B: 0, C: 1},
		{Op: Add, A: 4, B: 3, C: 2},
		{Op: Ret, A: 4},
	}}
	fuseMadd(fn, true, false)
	found := false
	for _, in := range fn.Code {
		if in.Op == Madd {
			found = true
		}
	}
	if !found {
		t.Fatal("mul+add pair not fused")
	}
	if got := runFn(t, fn); int64(got) != 6*7+5 {
		t.Errorf("after madd fusing got %d", int64(got))
	}
}

func TestSchedulerHidesLatency(t *testing.T) {
	// load-like latency chain: mul feeding the very next instruction vs an
	// independent instruction interleaved.
	mk := func() *Fn {
		return &Fn{NumRegs: 8, Code: []Insn{
			{Op: Ldi, A: 0, Imm: 3},
			{Op: Ldi, A: 1, Imm: 4},
			{Op: Mul, A: 2, B: 0, C: 1},
			{Op: Add, A: 3, B: 2, C: 0}, // stalls on r2
			{Op: Ldi, A: 4, Imm: 9},     // independent
			{Op: Add, A: 5, B: 3, C: 4},
			{Op: Ret, A: 5},
		}}
	}
	plain := mk()
	prog, codeP := tinyProgram(plain)
	procP := rt.NewProcess(prog, rt.Config{})
	xP := NewExec(procP, codeP)
	vP, _ := xP.Call(0, nil)

	sched := mk()
	schedule(sched)
	_, codeS := tinyProgram(sched)
	procS := rt.NewProcess(prog, rt.Config{})
	xS := NewExec(procS, codeS)
	vS, _ := xS.Call(0, nil)

	if vP != vS {
		t.Fatalf("scheduling changed result: %d vs %d", vP, vS)
	}
	if xS.Cycles >= xP.Cycles {
		t.Errorf("scheduling did not reduce cycles: %d >= %d", xS.Cycles, xP.Cycles)
	}
}

func TestRegallocRejectsTooFewRegisters(t *testing.T) {
	fn := &Fn{NumRegs: 4, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 1},
		{Op: Ret, A: 0},
	}}
	err := Finalize(fn, 2, LowerOpts{NumRegs: 4})
	if err == nil {
		t.Fatal("4 registers with 2 args accepted")
	}
	if _, ok := err.(*CompileError); !ok {
		t.Errorf("error type %T", err)
	}
}

func TestBoundTrapAndDivTrap(t *testing.T) {
	prog := &dex.Program{Name: "t", Methods: []*dex.Method{{
		Name: "main", Class: dex.NoClass, NumRegs: 1, Ret: dex.KindInt,
		Code: []dex.Insn{{Op: dex.OpReturnVoid}},
	}}, Natives: dex.StdNatives()}
	prog.BuildIndex()

	fn := &Fn{Method: 0, NumRegs: 4, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 4},
		{Op: NewArr, A: 1, B: 0, Sym: int(dex.KindInt)},
		{Op: Ldi, A: 2, Imm: 9},
		{Op: Bound, B: 1, C: 2},
		{Op: Ldi, A: 3, Imm: 0},
		{Op: Ret, A: 3},
	}}
	code := NewProgram()
	code.Fns[0] = fn
	proc := rt.NewProcess(prog, rt.Config{})
	x := NewExec(proc, code)
	if _, err := x.Call(0, nil); err == nil {
		t.Error("out-of-bounds Bound did not trap")
	}

	fnDiv := &Fn{Method: 0, NumRegs: 2, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 5},
		{Op: Ldi, A: 1, Imm: 0},
		{Op: Div, A: 0, B: 0, C: 1},
		{Op: Ret, A: 0},
	}}
	code2 := NewProgram()
	code2.Fns[0] = fnDiv
	x2 := NewExec(rt.NewProcess(prog, rt.Config{}), code2)
	if _, err := x2.Call(0, nil); err == nil {
		t.Error("division by zero did not trap")
	}
}

func TestSizeMetric(t *testing.T) {
	small := &Fn{Code: []Insn{{Op: Ret, A: 0}}}
	big := &Fn{Code: make([]Insn, 100)}
	if small.Size() >= big.Size() {
		t.Error("size metric not monotone in code length")
	}
}

// TestNativeCallsDoNotAllocate runs a compiled loop that calls a native on
// every iteration: the arguments marshal onto the executor's arena, so a
// thousand calls allocate no more than one.
func TestNativeCallsDoNotAllocate(t *testing.T) {
	absI := -1
	for i, n := range dex.StdNatives() {
		if n.Name == "Math.absI" {
			absI = i
		}
	}
	fn := &Fn{NumRegs: 4, Code: []Insn{
		{Op: Ldi, A: 1, Imm: 0}, // i
		{Op: Ldi, A: 2, Imm: 0}, // acc
		{Op: CallN, A: 3, Sym: absI, Args: []int{1}},
		{Op: Add, A: 2, B: 2, C: 3},
		{Op: Add, A: 1, B: 1, C: -1, Disp: 1},
		{Op: Br, Cond: CondLt, B: 1, C: 0, Imm: 2},
		{Op: Ret, A: 2},
	}}
	prog, code := tinyProgram(fn)
	x := NewExec(rt.NewProcess(prog, rt.Config{}), code)
	allocs := func(n uint64) float64 {
		args := []uint64{n}
		return testing.AllocsPerRun(10, func() {
			if v, err := x.Call(0, args); err != nil || v != n*(n-1)/2 {
				t.Fatalf("got %d, %v; want %d", v, err, n*(n-1)/2)
			}
		})
	}
	if one, many := allocs(1), allocs(1000); many > one {
		t.Errorf("1000 native calls allocate %.0f times, one call %.0f", many, one)
	}
}
