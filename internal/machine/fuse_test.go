package machine

import (
	"testing"

	"replayopt/internal/rt"
)

// loopFn is a hot-loop body with long runs of fusible ALU ops (the shape the
// fuse table targets): for i in 0..n { acc = ((acc*3 + i) ^ i) << 1 >> 1 }.
func loopFn(n int64) *Fn {
	return &Fn{NumRegs: 5, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 0},                     // i
		{Op: Ldi, A: 1, Imm: 0},                     // acc
		{Op: Ldi, A: 2, Imm: n},                     // limit
		{Op: Br, Cond: CondGe, B: 0, C: 2, Imm: 11}, // loop head
		{Op: Mul, A: 3, B: 1, C: -1, Disp: 3},       // acc*3
		{Op: Add, A: 3, B: 3, C: 0},                 // +i
		{Op: Xor, A: 3, B: 3, C: 0},                 // ^i
		{Op: Shl, A: 3, B: 3, C: -1, Disp: 1},       // <<1
		{Op: Shr, A: 1, B: 3, C: -1, Disp: 1},       // >>1 -> acc
		{Op: Add, A: 0, B: 0, C: -1, Disp: 1},       // i++
		{Op: Jmp, Imm: 3},                           //
		{Op: Ret, A: 1},                             //
	}}
}

// run with and without fusion: same return value, same cycle count. The
// superinstruction path is a dispatch optimization, not a cost-model change.
func TestFusedExecutionMatchesUnfused(t *testing.T) {
	exec := func(nofuse bool) (uint64, uint64) {
		prog, code := tinyProgram(loopFn(500))
		proc := rt.NewProcess(prog, rt.Config{})
		x := NewExec(proc, code)
		x.MaxCycles = 10_000_000
		x.NoFuse = nofuse
		v, err := x.Call(0, nil)
		if err != nil {
			t.Fatalf("nofuse=%v: %v", nofuse, err)
		}
		return v, x.Cycles
	}
	fusedRet, fusedCycles := exec(false)
	plainRet, plainCycles := exec(true)
	if fusedRet != plainRet {
		t.Errorf("fused ret %d != unfused %d", fusedRet, plainRet)
	}
	if fusedCycles != plainCycles {
		t.Errorf("fused cycles %d != unfused %d — fusion changed the cost model", fusedCycles, plainCycles)
	}
}

// The fuse table must pair only fusible ops and price the second op's static
// RAW stall exactly as the dynamic check would.
func TestFuseTableContents(t *testing.T) {
	fn := &Fn{NumRegs: 4, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 2},               // 0: fuses with 1
		{Op: Mul, A: 1, B: 0, C: 0},           // 1: fuses with 2
		{Op: Add, A: 2, B: 1, C: 0},           // 2: reads r1 -> Mul's latency stalls it
		{Op: Div, A: 3, B: 2, C: -1, Disp: 2}, // 3: trap op, never fused
		{Op: Ret, A: 3},
	}}
	fuse := fn.fuseTable()
	if fuse == nil {
		t.Fatal("no fuse table for a fusible sequence")
	}
	if fuse[0] == 0 || fuse[1] == 0 {
		t.Errorf("adjacent ALU pairs not fused: %v", fuse)
	}
	if want := uint32(opCost[Mul]); fuse[0] != want {
		t.Errorf("fuse[0] = %d, want cost(Mul) = %d", fuse[0], want)
	}
	// Add at 2 reads Mul's result at 1: the fused cost must carry the stall.
	if want := uint32(opCost[Add] + opLatency[Mul]); fuse[1] != want {
		t.Errorf("fuse[1] = %d, want cost(Add)+latency(Mul) = %d", fuse[1], want)
	}
	if fuse[2] != 0 || fuse[3] != 0 {
		t.Errorf("pairs involving Div must not fuse: %v", fuse)
	}
}

// Branching into the middle of a fused pair executes the second op unfused
// with identical semantics and cycles.
func TestBranchIntoFusedPair(t *testing.T) {
	build := func() *Fn {
		return &Fn{NumRegs: 3, Code: []Insn{
			{Op: Ldi, A: 0, Imm: 7},
			{Op: Jmp, Imm: 3},                     // jump between the fused ops below
			{Op: Ldi, A: 1, Imm: 99},              // 2: fuses with 3, skipped
			{Op: Add, A: 2, B: 0, C: -1, Disp: 1}, // 3: jump target
			{Op: Ret, A: 2},
		}}
	}
	runAt := func(nofuse bool) (uint64, uint64) {
		prog, code := tinyProgram(build())
		proc := rt.NewProcess(prog, rt.Config{})
		x := NewExec(proc, code)
		x.MaxCycles = 1_000_000
		x.NoFuse = nofuse
		v, err := x.Call(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v, x.Cycles
	}
	fv, fc := runAt(false)
	pv, pc := runAt(true)
	if fv != 8 || pv != 8 {
		t.Errorf("ret = %d/%d, want 8", fv, pv)
	}
	if fc != pc {
		t.Errorf("cycles differ across jump into pair: fused %d, unfused %d", fc, pc)
	}
}
