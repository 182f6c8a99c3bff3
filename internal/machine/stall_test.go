package machine

import (
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/rt"
)

// countingSampler counts samples; attaching it sends runFrame down its
// charge-per-op sampler path.
type countingSampler struct{ n int }

func (s *countingSampler) Sample([]dex.MethodID, dex.NativeID) { s.n++ }

// highRegFn uses only registers 63 and up, beyond the width of a machine
// word bitmask, and exercises every way the stall table is applied: a fused
// pair whose second op stalls, plain ops that stall, and a jump target whose
// textual predecessor writes a register it reads (no stall: it is reached
// only by the jump).
func highRegFn() *Fn {
	return &Fn{NumRegs: 71, Code: []Insn{
		{Op: Ldi, A: 63, Imm: 6},                               // 0
		{Op: Nop},                                              // 1: keeps 0 out of a pair
		{Op: Mul, A: 64, B: 63, C: -1, Disp: 7},                // 2: fuses with 3
		{Op: Add, A: 65, B: 64, C: 63},                         // 3: reads Mul's r64
		{Op: Div, A: 66, B: 65, C: -1, Disp: 2},                // 4
		{Op: Sub, A: 67, B: 66, C: 63},                         // 5: reads Div's r66
		{Op: Jmp, Imm: 8},                                      // 6
		{Op: Mul, A: 68, B: 67, C: 67},                         // 7: skipped
		{Op: Add, A: 69, B: 68, C: 67},                         // 8: jump target
		{Op: Br, Cond: CondEq, B: 69, C: -1, Disp: 0, Imm: 11}, // 9: not taken
		{Op: Mul, A: 70, B: 69, C: 63},                         // 10
		{Op: Ret, A: 70},                                       // 11: reads Mul's r70
	}}
}

// TestHighRegisterStalls checks the stall charges of highRegFn against a
// total worked out by hand, on the fused, plain and sampler dispatch paths.
func TestHighRegisterStalls(t *testing.T) {
	const want = costFrame +
		1 + // 0 ldi
		1 + // 1 nop
		3 + 1 + 2 + // 2-3 mul, add + mul's latency
		12 + // 4 div
		1 + 4 + // 5 sub + div's latency
		1 + // 6 jmp
		1 + // 8 add: reached by the jump, so no stall against 7's mul
		1 + costBranchAverage + // 9 br, unhinted, not taken
		3 + // 10 mul
		2 + 2 // 11 ret + mul's latency
	for _, c := range []struct {
		name    string
		nofuse  bool
		sampler bool
	}{{"fused", false, false}, {"nofuse", true, false}, {"sampler", false, true}} {
		prog, code := tinyProgram(highRegFn())
		x := NewExec(rt.NewProcess(prog, rt.Config{}), code)
		x.MaxCycles = 1_000_000
		x.NoFuse = c.nofuse
		var s countingSampler
		if c.sampler {
			x.SamplePeriod, x.Sampler = 10, &s
		}
		v, err := x.Call(0, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if v != 108 {
			t.Errorf("%s: ret %d, want 108", c.name, v)
		}
		if x.Cycles != want {
			t.Errorf("%s: %d cycles, want %d", c.name, x.Cycles, want)
		}
		if c.sampler && s.n == 0 {
			t.Errorf("%s: sampler never called", c.name)
		}
	}
}
