package machine

import (
	"testing"

	"replayopt/internal/rt"
)

func execFn(t *testing.T, fn *Fn, args ...uint64) (uint64, uint64) {
	t.Helper()
	prog, code := tinyProgram(fn)
	proc := rt.NewProcess(prog, rt.Config{})
	x := NewExec(proc, code)
	x.MaxCycles = 10_000_000
	v, err := x.Call(0, args)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, x.Cycles
}

func TestFoldMovesCollapsesAssignmentTemps(t *testing.T) {
	// add t, a, b ; mov s, t  (t dead)  ->  add s, a, b
	fn := &Fn{NumRegs: 8, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 20},
		{Op: Ldi, A: 1, Imm: 22},
		{Op: Add, A: 2, B: 0, C: 1},
		{Op: Mov, A: 3, B: 2},
		{Op: Ret, A: 3},
	}}
	before := len(fn.Code)
	foldMoves(fn)
	if len(fn.Code) != before-1 {
		t.Fatalf("code length %d, want %d", len(fn.Code), before-1)
	}
	if v, _ := execFn(t, fn); int64(v) != 42 {
		t.Errorf("got %d", int64(v))
	}
}

func TestFoldMovesKeepsLiveTemps(t *testing.T) {
	// t is read after the mov: the fold must NOT happen.
	fn := &Fn{NumRegs: 8, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 5},
		{Op: Ldi, A: 1, Imm: 6},
		{Op: Add, A: 2, B: 0, C: 1}, // t = 11
		{Op: Mov, A: 3, B: 2},       // s = t
		{Op: Add, A: 4, B: 2, C: 3}, // t + s = 22
		{Op: Ret, A: 4},
	}}
	foldMoves(fn)
	if v, _ := execFn(t, fn); int64(v) != 22 {
		t.Errorf("got %d, want 22 (live temp folded away)", int64(v))
	}
}

func TestFoldMovesRespectsLiveOutAcrossBlocks(t *testing.T) {
	// The temp is live-out into the next block: no fold.
	fn := &Fn{NumRegs: 8, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 1},
		{Op: Add, A: 2, B: 0, C: 0}, // t = 2
		{Op: Mov, A: 3, B: 2},       // s = 2
		{Op: Br, Cond: CondEq, B: 0, C: 0, Imm: 4},
		{Op: Add, A: 4, B: 2, C: 3}, // reads t in another block
		{Op: Ret, A: 4},
	}}
	foldMoves(fn)
	if v, _ := execFn(t, fn); int64(v) != 4 {
		t.Errorf("got %d, want 4", int64(v))
	}
}

func TestLiteralFusingBranchImmediates(t *testing.T) {
	fn := &Fn{NumRegs: 8, Code: []Insn{
		{Op: Ldi, A: 0, Imm: 7},
		{Op: Ldi, A: 1, Imm: 10},
		{Op: Br, Cond: CondLt, B: 0, C: 1, Imm: 4},
		{Op: Ret, A: 1},
		{Op: Ldi, A: 2, Imm: 99},
		{Op: Ret, A: 2},
	}}
	fuseLiterals(fn)
	// The compare-against-10 should now be an immediate branch and the Ldi
	// of 10 dropped.
	if v, _ := execFn(t, fn); int64(v) != 99 {
		t.Errorf("got %d, want 99", int64(v))
	}
	for _, in := range fn.Code {
		if in.Op == Br && in.C >= 0 {
			t.Error("branch constant not fused")
		}
	}
}

func TestBlockLiveOutLoopCarried(t *testing.T) {
	// r1 is loop-carried: live-out of the loop body block.
	code := []Insn{
		{Op: Ldi, A: 1, Imm: 0},                    // 0
		{Op: Ldi, A: 2, Imm: 10},                   // 1
		{Op: Add, A: 1, B: 1, C: -1, Disp: 1},      // 2: loop body
		{Op: Br, Cond: CondLt, B: 1, C: 2, Imm: 2}, // 3
		{Op: Ret, A: 1},                            // 4
	}
	starts := blockStarts(code)
	_, liveOut := liveness(code, starts, blockIndex(code, starts), maxReg(code))
	// The block containing pc2-3 must have r1 live-out (read next iter).
	var bodyIdx = -1
	for i, s := range starts {
		if s == 2 {
			bodyIdx = i
		}
	}
	if bodyIdx < 0 {
		t.Fatalf("blocks: %v", starts)
	}
	if !liveOut[bodyIdx].Has(1) {
		t.Error("loop-carried register not live-out of the body")
	}
}

func TestRegallocLoopCorrectnessUnderPressure(t *testing.T) {
	// A loop with many live values and only 12 registers must spill and
	// still compute correctly.
	var code []Insn
	for r := 0; r < 8; r++ {
		code = append(code, Insn{Op: Ldi, A: r, Imm: int64(r + 1)})
	}
	code = append(code,
		Insn{Op: Ldi, A: 8, Imm: 0},       // i
		Insn{Op: Ldi, A: 9, Imm: 20},      // n
		Insn{Op: Add, A: 10, B: 10, C: 0}, // loop: acc += chain
		Insn{Op: Add, A: 10, B: 10, C: 1},
		Insn{Op: Add, A: 10, B: 10, C: 2},
		Insn{Op: Add, A: 10, B: 10, C: 3},
		Insn{Op: Add, A: 10, B: 10, C: 4},
		Insn{Op: Add, A: 10, B: 10, C: 5},
		Insn{Op: Add, A: 10, B: 10, C: 6},
		Insn{Op: Add, A: 10, B: 10, C: 7},
		Insn{Op: Add, A: 8, B: 8, C: -1, Disp: 1},
		Insn{Op: Br, Cond: CondLt, B: 8, C: 9, Imm: 10},
		Insn{Op: Ret, A: 10},
	)
	fn := &Fn{NumRegs: 11, Code: code}
	if err := Finalize(fn, 0, LowerOpts{NumRegs: 12}); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if fn.NumSpills == 0 {
		t.Log("note: no spills needed (allocator fit everything)")
	}
	v, _ := execFn(t, fn)
	if int64(v) != 20*(1+2+3+4+5+6+7+8) {
		t.Errorf("got %d, want %d", int64(v), 20*36)
	}
}
