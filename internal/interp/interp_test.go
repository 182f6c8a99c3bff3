package interp

import (
	"errors"
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/mem"
	"replayopt/internal/minic"
	"replayopt/internal/rt"
)

// buildProgram assembles methods into a validated program with the standard
// native table.
func buildProgram(t *testing.T, entry dex.MethodID, classes []*dex.Class, methods ...*dex.Method) *dex.Program {
	t.Helper()
	p := &dex.Program{Name: "t", Methods: methods, Classes: classes, Natives: dex.StdNatives(), Entry: entry}
	p.Globals = []dex.Global{{Name: "g", Kind: dex.KindInt}}
	p.BuildIndex()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

func run(t *testing.T, p *dex.Program) (uint64, *Env) {
	t.Helper()
	proc := rt.NewProcess(p, rt.Config{})
	e := NewEnv(proc)
	e.MaxCycles = 50_000_000
	v, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v, e
}

// sumLoop computes sum(0..n-1) with a loop: checks arithmetic, branches,
// and backward-edge safepoints.
func sumLoopMethod() *dex.Method {
	// v0=n, v1=i, v2=sum, v3=1
	return &dex.Method{
		Name: "sum", Class: dex.NoClass, NumRegs: 4, NumArgs: 1,
		Params: []dex.Kind{dex.KindInt}, Ret: dex.KindInt,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 1, Imm: 0},   // 0: i = 0
			{Op: dex.OpConstInt, A: 2, Imm: 0},   // 1: sum = 0
			{Op: dex.OpConstInt, A: 3, Imm: 1},   // 2: one = 1
			{Op: dex.OpIfGe, B: 1, C: 0, Imm: 7}, // 3: if i >= n goto 7
			{Op: dex.OpAddInt, A: 2, B: 2, C: 1}, // 4: sum += i
			{Op: dex.OpAddInt, A: 1, B: 1, C: 3}, // 5: i += 1
			{Op: dex.OpGoto, Imm: 3},             // 6
			{Op: dex.OpReturn, A: 2},             // 7
		},
	}
}

func TestSumLoop(t *testing.T) {
	sum := sumLoopMethod()
	main := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 2, Ret: dex.KindInt,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 100},
			{Op: dex.OpInvokeStatic, A: 1, Sym: 0, Args: []int{0}},
			{Op: dex.OpReturn, A: 1},
		},
	}
	p := buildProgram(t, 1, nil, sum, main)
	v, e := run(t, p)
	if int64(v) != 4950 {
		t.Errorf("sum(100) = %d, want 4950", int64(v))
	}
	if e.Cycles == 0 {
		t.Error("no cycles charged")
	}
}

func TestFloatMathAndConversions(t *testing.T) {
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 4, Ret: dex.KindFloat,
		Code: []dex.Insn{
			{Op: dex.OpConstFloat, A: 0, F: 1.5},
			{Op: dex.OpConstInt, A: 1, Imm: 3},
			{Op: dex.OpIntToFloat, A: 2, B: 1},
			{Op: dex.OpMulFloat, A: 3, B: 0, C: 2}, // 4.5
			{Op: dex.OpReturn, A: 3},
		},
	}
	p := buildProgram(t, 0, nil, m)
	v, _ := run(t, p)
	if got := rt.U2F(v); got != 4.5 {
		t.Errorf("result = %v, want 4.5", got)
	}
}

func TestArraysAndGlobals(t *testing.T) {
	// main: a = new int[5]; a[2] = 7; g = a[2]+len(a); return g
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 6, Ret: dex.KindInt,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 5},
			{Op: dex.OpNewArrayInt, A: 1, B: 0},
			{Op: dex.OpConstInt, A: 2, Imm: 2},
			{Op: dex.OpConstInt, A: 3, Imm: 7},
			{Op: dex.OpAStoreInt, A: 3, B: 1, C: 2},
			{Op: dex.OpALoadInt, A: 4, B: 1, C: 2},
			{Op: dex.OpArrayLen, A: 5, B: 1},
			{Op: dex.OpAddInt, A: 4, B: 4, C: 5},
			{Op: dex.OpSStoreInt, A: 4, Imm: 0},
			{Op: dex.OpSLoadInt, A: 0, Imm: 0},
			{Op: dex.OpReturn, A: 0},
		},
	}
	p := buildProgram(t, 0, nil, m)
	v, _ := run(t, p)
	if int64(v) != 12 {
		t.Errorf("result = %d, want 12", int64(v))
	}
}

func TestVirtualDispatchAndTypeProfile(t *testing.T) {
	// Base.f returns 1; Derived.f returns 2. main news a Derived, calls f
	// through Base's declared slot.
	base := &dex.Method{Name: "Base.f", Class: 0, Virtual: true, VSlot: 0,
		NumRegs: 2, NumArgs: 1, Params: []dex.Kind{dex.KindRef}, Ret: dex.KindInt,
		Code: []dex.Insn{{Op: dex.OpConstInt, A: 1, Imm: 1}, {Op: dex.OpReturn, A: 1}}}
	derived := &dex.Method{Name: "Derived.f", Class: 1, Virtual: true, VSlot: 0,
		NumRegs: 2, NumArgs: 1, Params: []dex.Kind{dex.KindRef}, Ret: dex.KindInt,
		Code: []dex.Insn{{Op: dex.OpConstInt, A: 1, Imm: 2}, {Op: dex.OpReturn, A: 1}}}
	main := &dex.Method{Name: "main", Class: dex.NoClass, NumRegs: 2, Ret: dex.KindInt,
		Code: []dex.Insn{
			{Op: dex.OpNewInstance, A: 0, Sym: 1},
			{Op: dex.OpInvokeVirtual, A: 1, Sym: 0, Args: []int{0}},
			{Op: dex.OpReturn, A: 1},
		}}
	classes := []*dex.Class{
		{Name: "Base", Super: dex.NoClass, VTable: []dex.MethodID{0}},
		{Name: "Derived", Super: 0, VTable: []dex.MethodID{1}},
	}
	p := buildProgram(t, 2, classes, base, derived, main)
	proc := rt.NewProcess(p, rt.Config{})
	e := NewEnv(proc)
	rec := &captureRecorder{}
	e.Recorder = rec
	v, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int64(v) != 2 {
		t.Errorf("virtual call = %d, want 2 (Derived.f)", int64(v))
	}
	if len(rec.dispatches) != 1 || rec.dispatches[0].cls != 1 {
		t.Errorf("dispatch profile = %+v, want one Derived dispatch", rec.dispatches)
	}
}

type captureRecorder struct {
	stores     []mem.Addr
	dispatches []struct {
		site CallSite
		cls  dex.ClassID
	}
}

func (r *captureRecorder) Store(a mem.Addr) { r.stores = append(r.stores, a) }
func (r *captureRecorder) Dispatch(s CallSite, c dex.ClassID) {
	r.dispatches = append(r.dispatches, struct {
		site CallSite
		cls  dex.ClassID
	}{s, c})
}

func TestRecorderSeesStores(t *testing.T) {
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 3, Ret: dex.KindVoid,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 4},
			{Op: dex.OpNewArrayInt, A: 1, B: 0},
			{Op: dex.OpConstInt, A: 2, Imm: 0},
			{Op: dex.OpAStoreInt, A: 0, B: 1, C: 2},
			{Op: dex.OpSStoreInt, A: 0, Imm: 0},
			{Op: dex.OpReturnVoid},
		},
	}
	p := buildProgram(t, 0, nil, m)
	proc := rt.NewProcess(p, rt.Config{})
	e := NewEnv(proc)
	rec := &captureRecorder{}
	e.Recorder = rec
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.stores) != 2 {
		t.Fatalf("recorded %d stores, want 2 (array elem + global)", len(rec.stores))
	}
	if rec.stores[1] != rt.StaticsBase {
		t.Errorf("global store at %#x, want statics base", uint64(rec.stores[1]))
	}
}

func TestNativeMathAndIO(t *testing.T) {
	sqrtID := mustNative(t, "Math.sqrt")
	printID := mustNative(t, "IO.printInt")
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 3, Ret: dex.KindFloat,
		Code: []dex.Insn{
			{Op: dex.OpConstFloat, A: 0, F: 16},
			{Op: dex.OpInvokeNative, A: 1, Sym: int(sqrtID), Args: []int{0}},
			{Op: dex.OpConstInt, A: 2, Imm: 9},
			{Op: dex.OpInvokeNative, A: 0, Sym: int(printID), Args: []int{2}},
			{Op: dex.OpReturn, A: 1},
		},
	}
	p := buildProgram(t, 0, nil, m)
	proc := rt.NewProcess(p, rt.Config{})
	ns := NewNativeState(1)
	e := &Env{Proc: proc, Natives: BindNatives(p, ns)}
	v, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rt.U2F(v) != 4 {
		t.Errorf("sqrt(16) = %v", rt.U2F(v))
	}
	if len(ns.PrintedInts) != 1 || ns.PrintedInts[0] != 9 {
		t.Errorf("PrintedInts = %v, want [9]", ns.PrintedInts)
	}
}

func mustNative(t *testing.T, name string) dex.NativeID {
	t.Helper()
	id, ok := dex.StdNativeIndex()[name]
	if !ok {
		t.Fatalf("std native %s missing", name)
	}
	return id
}

func TestDivByZeroTraps(t *testing.T) {
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 2, Ret: dex.KindInt,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 1},
			{Op: dex.OpConstInt, A: 1, Imm: 0},
			{Op: dex.OpDivInt, A: 0, B: 0, C: 1},
			{Op: dex.OpReturn, A: 0},
		},
	}
	p := buildProgram(t, 0, nil, m)
	e := NewEnv(rt.NewProcess(p, rt.Config{}))
	_, err := e.Run()
	var trap *rt.Trap
	if !errors.As(err, &trap) || trap.Kind != rt.TrapDivZero {
		t.Errorf("err = %v, want div-zero trap", err)
	}
}

func TestInfiniteLoopHitsTimeout(t *testing.T) {
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 1, Ret: dex.KindVoid,
		Code: []dex.Insn{{Op: dex.OpGoto, Imm: 0}},
	}
	p := buildProgram(t, 0, nil, m)
	e := NewEnv(rt.NewProcess(p, rt.Config{}))
	e.MaxCycles = 10_000
	if _, err := e.Run(); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestThrowSurfaces(t *testing.T) {
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 1, Ret: dex.KindVoid, HasThrow: true,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 13},
			{Op: dex.OpThrow, A: 0},
		},
	}
	p := buildProgram(t, 0, nil, m)
	e := NewEnv(rt.NewProcess(p, rt.Config{}))
	_, err := e.Run()
	var thrown *ThrownError
	if !errors.As(err, &thrown) || thrown.Value != 13 {
		t.Errorf("err = %v, want thrown 13", err)
	}
}

type stackSampler struct{ samples [][]dex.MethodID }

func (s *stackSampler) Sample(stack []dex.MethodID, _ dex.NativeID) {
	cp := make([]dex.MethodID, len(stack))
	copy(cp, stack)
	s.samples = append(s.samples, cp)
}

func TestSamplerFiresPeriodically(t *testing.T) {
	sum := sumLoopMethod()
	main := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 2, Ret: dex.KindInt,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 2000},
			{Op: dex.OpInvokeStatic, A: 1, Sym: 0, Args: []int{0}},
			{Op: dex.OpReturn, A: 1},
		},
	}
	p := buildProgram(t, 1, nil, sum, main)
	e := NewEnv(rt.NewProcess(p, rt.Config{}))
	s := &stackSampler{}
	e.SamplePeriod = 500
	e.Sampler = s
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.samples) < 10 {
		t.Fatalf("only %d samples, want many", len(s.samples))
	}
	// Nearly all samples should land inside sum (the hot method).
	inSum := 0
	for _, st := range s.samples {
		if len(st) > 0 && st[len(st)-1] == 0 {
			inSum++
		}
	}
	if inSum*10 < len(s.samples)*9 {
		t.Errorf("only %d/%d samples in hot method", inSum, len(s.samples))
	}
}

func TestDeterministicCycleCount(t *testing.T) {
	sum := sumLoopMethod()
	main := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 2, Ret: dex.KindInt,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 500},
			{Op: dex.OpInvokeStatic, A: 1, Sym: 0, Args: []int{0}},
			{Op: dex.OpReturn, A: 1},
		},
	}
	p := buildProgram(t, 1, nil, sum, main)
	run := func() uint64 {
		e := NewEnv(rt.NewProcess(p, rt.Config{}))
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("cycle counts differ across identical runs: %d vs %d", a, b)
	}
}

func TestGCCollectionChargesCycles(t *testing.T) {
	// Allocate in a loop until a collection triggers.
	// v0 = 4096, v1 = counter, v2 = one, v3 = arr
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 4, Ret: dex.KindVoid,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 4096},
			{Op: dex.OpConstInt, A: 1, Imm: 600},
			{Op: dex.OpConstInt, A: 2, Imm: 1},
			{Op: dex.OpIfLe, B: 1, C: 2, Imm: 7}, // 3: while counter > 1
			{Op: dex.OpNewArrayInt, A: 3, B: 0},  // 4: alloc 32 KiB
			{Op: dex.OpSubInt, A: 1, B: 1, C: 2}, // 5
			{Op: dex.OpGoto, Imm: 3},             // 6
			{Op: dex.OpReturnVoid},               // 7
		},
	}
	p := buildProgram(t, 0, nil, m)
	proc := rt.NewProcess(p, rt.Config{})
	e := NewEnv(proc)
	e.MaxCycles = 100_000_000
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if proc.GCRuns() == 0 {
		t.Error("no GC ran despite ~19 MB of allocation")
	}
}

func TestNativeStateDeterminismAndInputs(t *testing.T) {
	randID := mustNative(t, "Random.nextInt")
	readID := mustNative(t, "IO.readInput")
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 4, Ret: dex.KindInt,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 100},
			{Op: dex.OpInvokeNative, A: 1, Sym: int(randID), Args: []int{0}},
			{Op: dex.OpInvokeNative, A: 2, Sym: int(readID), Args: []int{}},
			{Op: dex.OpInvokeNative, A: 3, Sym: int(readID), Args: []int{}},
			{Op: dex.OpAddInt, A: 1, B: 1, C: 2},
			{Op: dex.OpAddInt, A: 1, B: 1, C: 3},
			{Op: dex.OpReturn, A: 1},
		},
	}
	p := buildProgram(t, 0, nil, m)
	run := func(seed uint64, inputs []int64) int64 {
		proc := rt.NewProcess(p, rt.Config{})
		ns := NewNativeState(seed)
		ns.Inputs = inputs
		e := &Env{Proc: proc, Natives: BindNatives(p, ns)}
		v, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return int64(v)
	}
	// Same seed + inputs => same result; one queued input then -1.
	a := run(5, []int64{9})
	b := run(5, []int64{9})
	if a != b {
		t.Errorf("same seed produced different results: %d vs %d", a, b)
	}
	if c := run(6, []int64{9}); c == a {
		t.Log("different seeds happened to collide (acceptable)")
	}
	// With no inputs both reads return -1: result differs by 9+1 vs -2.
	d := run(5, nil)
	if a-d != 9+1 {
		t.Errorf("input queue semantics wrong: with=%d without=%d", a, d)
	}
}

func TestStackOverflowSurfaces(t *testing.T) {
	m := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 1, Ret: dex.KindVoid,
		Code: []dex.Insn{
			{Op: dex.OpInvokeStatic, A: 0, Sym: 0, Args: []int{}},
			{Op: dex.OpReturnVoid},
		},
	}
	p := buildProgram(t, 0, nil, m)
	e := NewEnv(rt.NewProcess(p, rt.Config{}))
	e.MaxCycles = 100_000_000
	if _, err := e.Run(); !errors.Is(err, ErrStackOverflow) {
		t.Errorf("err = %v, want stack overflow", err)
	}
}

func BenchmarkInterpSumLoop(b *testing.B) {
	sum := sumLoopMethod()
	main := &dex.Method{
		Name: "main", Class: dex.NoClass, NumRegs: 2, Ret: dex.KindInt,
		Code: []dex.Insn{
			{Op: dex.OpConstInt, A: 0, Imm: 1000},
			{Op: dex.OpInvokeStatic, A: 1, Sym: 0, Args: []int{0}},
			{Op: dex.OpReturn, A: 1},
		},
	}
	p := &dex.Program{Name: "b", Methods: []*dex.Method{sum, main}, Natives: dex.StdNatives(), Entry: 1}
	p.Globals = []dex.Global{{Name: "g", Kind: dex.KindInt}}
	p.BuildIndex()
	proc := rt.NewProcess(p, rt.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEnv(proc)
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllNativeEffectsObservable drives every remaining I/O native and
// checks the NativeState counters the device model charges for.
func TestAllNativeEffectsObservable(t *testing.T) {
	prog, err := minic.CompileSource("t", `
func main() int {
	print_float(2.5);
	play_sound(3);
	int a = read_input();
	int b = read_input();
	int c = read_input();
	float r = rand_float();
	int ok = 0;
	if (r >= 0.0 && r < 1.0) { ok = 1; }
	return a * 100 + b * 10 + ok * 1000 + c + 7;
}`)
	if err != nil {
		t.Fatal(err)
	}
	proc := rt.NewProcess(prog, rt.Config{})
	ns := NewNativeState(1)
	ns.Inputs = []int64{4, 2} // third read finds the stream empty
	e := NewEnv(proc)
	e.Natives = BindNatives(prog, ns)
	e.MaxCycles = 10_000_000
	v, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// a=4, b=2, c=-1 (exhausted stream), ok=1.
	if int64(v) != 4*100+2*10+1000-1+7 {
		t.Errorf("native-driven result = %d", int64(v))
	}
	if len(ns.PrintedFloats) != 1 || ns.PrintedFloats[0] != 2.5 {
		t.Errorf("PrintedFloats = %v", ns.PrintedFloats)
	}
	if ns.SoundsPlayed != 1 {
		t.Errorf("SoundsPlayed = %d", ns.SoundsPlayed)
	}
}

// TestRandFloatDeterministicPerSeed: same seed, same stream; different
// seeds, different streams (the replay determinism story depends on it).
func TestRandFloatDeterministicPerSeed(t *testing.T) {
	src := `
func main() int {
	float acc = 0.0;
	for (int i = 0; i < 10; i = i + 1) { acc = acc + rand_float(); }
	return ftoi(acc * 1000000.0);
}`
	run := func(seed uint64) uint64 {
		prog, err := minic.CompileSource("t", src)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEnv(rt.NewProcess(prog, rt.Config{}))
		e.MaxCycles = 10_000_000
		e.Natives = BindNatives(prog, NewNativeState(seed))
		v, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if run(5) != run(5) {
		t.Error("same seed produced different streams")
	}
	if run(5) == run(6) {
		t.Error("different seeds produced the same stream")
	}
}

// arenaSrc nests calls three ways: recursion whose caller still reads its
// own registers after each callee returns, sibling calls with several
// arguments, and native calls with arguments inside the recursion.
const arenaSrc = `
func mix(int a, int b, int c, int d) int { return a * 1000 + b * 100 + c * 10 + d; }
func fib(int n) int {
	if (n < 2) { return n; }
	int keep = n * 7;
	int a = fib(n - 1);
	int b = fib(n - 2);
	int m = absi(0 - n);
	return a + b + keep - n * 7 + m - n;
}
func main() int {
	int s = 0;
	for (int i = 0; i < 4; i = i + 1) { s = s + mix(i, i + 1, i + 2, fib(i + 10)); }
	return s + fib(15);
}`

// The register and argument arenas follow the call stack: results match a
// direct computation, Run leaves both arenas empty, also when it fails deep
// in the recursion, and a warm Run allocates nothing per call.
func TestArenasFollowCallDiscipline(t *testing.T) {
	fib := func(n int) int {
		a, b := 0, 1
		for ; n > 0; n-- {
			a, b = b, a+b
		}
		return a
	}
	want := fib(15)
	for i := 0; i < 4; i++ {
		want += i*1000 + (i+1)*100 + (i+2)*10 + fib(i+10)
	}
	prog, err := minic.CompileSource("t", arenaSrc)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnv(rt.NewProcess(prog, rt.Config{}))
	for run := 0; run < 2; run++ {
		v, err := e.Run()
		if err != nil || int64(v) != int64(want) {
			t.Fatalf("run %d: %d, %v; want %d", run, int64(v), err, want)
		}
		if len(e.frames) != 0 || len(e.args) != 0 {
			t.Fatalf("run %d left %d registers and %d arguments on the arenas", run, len(e.frames), len(e.args))
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { e.Run() }); allocs > 20 {
		t.Errorf("a warm Run allocates %.0f times over thousands of calls", allocs)
	}
	e.MaxCycles = e.Cycles + 5_000
	if _, err := e.Run(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if len(e.frames) != 0 || len(e.args) != 0 {
		t.Errorf("a failed Run left %d registers and %d arguments on the arenas", len(e.frames), len(e.args))
	}
}
