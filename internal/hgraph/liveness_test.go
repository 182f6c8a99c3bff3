package hgraph

import (
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/flow"
)

func TestLivenessLoopCarried(t *testing.T) {
	p := compile(t, `
func f(int n) int {
	int sum = 0;
	for (int i = 0; i < n; i = i + 1) { sum = sum + i; }
	return sum;
}
func main() int { return f(5); }`)
	g := graphFor(t, p, "f")
	liveOut := g.Liveness()
	// The loop body, the source of the back edge, must have the accumulator
	// and counter live-out.
	var body *Block
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if b != s && g.Dominates(s, b) {
				body = b
			}
		}
	}
	if body == nil {
		t.Fatal("no loop body found")
	}
	if live := liveOut[body.ID]; count(g, live) < 2 {
		t.Errorf("loop body live-out %v — loop-carried values missing", live)
	}
}

func TestLivenessDeadAfterLastUse(t *testing.T) {
	p := compile(t, `
func f(int a) int {
	int t = a * 2;
	int u = t + 1;
	return u;
}
func main() int { return f(3); }`)
	g := graphFor(t, p, "f")
	liveOut := g.Liveness()
	// Straight-line function: nothing is live out of the exit block.
	exit := g.Blocks[len(g.Blocks)-1]
	if n := count(g, liveOut[exit.ID]); n != 0 {
		t.Errorf("%d registers live out of the return block", n)
	}
}

// count returns how many of g's registers s holds.
func count(g *Graph, s flow.Set) int {
	n := 0
	for r := 0; r < g.Method.NumRegs; r++ {
		if s.Has(r) {
			n++
		}
	}
	return n
}

func TestInsnUsesAndDefShapes(t *testing.T) {
	var buf [8]int
	in := dex.Insn{Op: dex.OpAStoreInt, A: 1, B: 2, C: 3}
	uses := InsnUses(&in, buf[:])
	if len(uses) != 3 {
		t.Errorf("aput uses %v", uses)
	}
	prog := &dex.Program{Methods: []*dex.Method{{Ret: dex.KindVoid}}, Natives: dex.StdNatives()}
	call := dex.Insn{Op: dex.OpInvokeStatic, A: 0, Sym: 0, Args: []int{4, 5}}
	if d := InsnDef(prog, &call); d != -1 {
		t.Errorf("void call defines %d", d)
	}
	prog.Methods[0].Ret = dex.KindInt
	if d := InsnDef(prog, &call); d != 0 {
		t.Errorf("int call defines %d", d)
	}
	if !InsnHasSideEffects(&dex.Insn{Op: dex.OpDivInt}) {
		t.Error("div marked pure despite trap")
	}
	if InsnHasSideEffects(&dex.Insn{Op: dex.OpAddInt}) {
		t.Error("add marked side-effecting")
	}
}
