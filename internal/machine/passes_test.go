package machine

import (
	"fmt"
	"testing"

	"replayopt/internal/flow"
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
	live := liveness(code, starts, blockIndex(code, starts), maxReg(code))
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
	if !live.liveOut(bodyIdx, 1) {
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

// denseLiveness is the reference for liveness: the same equations solved
// over every register 0..nreg-1 in every block.
func denseLiveness(code []Insn, starts, blockOf []int, nreg int) (liveIn, liveOut []flow.Set) {
	nblocks := len(starts)
	succ := flow.NewAdj(nblocks, 2*nblocks)
	use, def := flow.NewSets(nblocks, nreg), flow.NewSets(nblocks, nreg)
	var buf [8]int
	for bi, s := range starts {
		end := len(code)
		if bi+1 < nblocks {
			end = starts[bi+1]
		}
		u, d := use[bi], def[bi]
		for pc := s; pc < end; pc++ {
			in := &code[pc]
			for _, r := range in.reads(buf[:]) {
				if !d.Has(r) {
					u.Add(r)
				}
			}
			if w := in.writes(); w >= 0 {
				d.Add(w)
			}
		}
		switch last := &code[end-1]; {
		case last.Op == Br:
			succ.Add(int32(blockOf[last.Imm]))
			if end < len(code) {
				succ.Add(int32(bi + 1))
			}
		case last.Op == Jmp:
			succ.Add(int32(blockOf[last.Imm]))
		case !last.isTerminator() && end < len(code):
			succ.Add(int32(bi + 1))
		}
		succ.End()
	}
	return flow.Backward(succ, use, def)
}

// liveIn reports whether r is live on entry to block b.
func (l *liveSets) liveIn(b, r int) bool {
	i := l.idx[r]
	return i >= 0 && l.in[b].Has(int(i))
}

// checkLiveness compares l, liveness's answer for code, with
// denseLiveness's for every register of every block.
func checkLiveness(code []Insn, starts, blockOf []int, nreg int, l *liveSets) error {
	in, out := denseLiveness(code, starts, blockOf, nreg)
	for b := range starts {
		for r := 0; r < nreg; r++ {
			if got, want := l.liveIn(b, r), in[b].Has(r); got != want {
				return fmt.Errorf("block %d (pc %d) r%d: live-in %t, dense %t", b, starts[b], r, got, want)
			}
			if got, want := l.liveOut(b, r), out[b].Has(r); got != want {
				return fmt.Errorf("block %d (pc %d) r%d: live-out %t, dense %t", b, starts[b], r, got, want)
			}
		}
	}
	return nil
}

// fuzzCode decodes bytes into linear code over at most 12 registers: three
// bytes per instruction, the first picking the op. Branch and jump targets
// are taken modulo the code length, so back-edges, self-loops and jumps into
// the middle of a block all occur; the code may also run off its end.
func fuzzCode(data []byte) []Insn {
	var code []Insn
	for i := 0; i+2 < len(data); i += 3 {
		op, x, y := data[i], int(data[i+1]), int(data[i+2])
		a, b, c := x%12, (x/12)%12, y%12
		var in Insn
		switch op % 9 {
		case 0:
			in = Insn{Op: Ldi, A: a, Imm: int64(y)}
		case 1:
			in = Insn{Op: Mov, A: a, B: b}
		case 2:
			in = Insn{Op: Add, A: a, B: b, C: c}
		case 3:
			in = Insn{Op: Add, A: a, B: b, C: -1, Disp: 1}
		case 4:
			in = Insn{Op: Store, A: a, B: b, C: -1}
		case 5:
			in = Insn{Op: Br, Cond: CondLt, B: a, C: b, Imm: int64(y)}
		case 6:
			in = Insn{Op: Jmp, Imm: int64(y)}
		case 7:
			dst := -1
			if y&1 != 0 {
				dst = c
			}
			in = Insn{Op: CallN, A: dst, Args: []int{a, b, c}[:x%4]}
		case 8:
			in = Insn{Op: Ret, A: a}
		}
		code = append(code, in)
	}
	for pc := range code {
		if in := &code[pc]; in.Op == Br || in.Op == Jmp {
			in.Imm %= int64(len(code))
		}
	}
	return code
}

// FuzzLiveness checks liveness against denseLiveness on random linear code
// with branches, jumps, calls and back-edges.
func FuzzLiveness(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 10, 3, 1, 0, 5, 1, 2, 8, 1, 0})     // a loop
	f.Add([]byte{2, 37, 4, 6, 0, 5, 7, 13, 3, 1, 26, 0, 8, 2, 0})   // a jump back to the entry, then dead code
	f.Add([]byte{5, 3, 0, 7, 255, 9, 2, 14, 1, 6, 0, 1, 4, 40, 0})  // a self-loop, then a loop around a call
	f.Add([]byte{1, 13, 0, 3, 26, 0, 5, 1, 2, 2, 39, 7, 0, 3, 100}) // runs off its end
	f.Fuzz(func(t *testing.T, data []byte) {
		code := fuzzCode(data)
		if len(code) == 0 {
			return
		}
		starts := blockStarts(code)
		blockOf := blockIndex(code, starts)
		nreg := maxReg(code)
		if err := checkLiveness(code, starts, blockOf, nreg, liveness(code, starts, blockOf, nreg)); err != nil {
			t.Fatalf("%v\n%v", err, code)
		}
	})
}
