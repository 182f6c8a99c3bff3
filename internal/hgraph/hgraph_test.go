package hgraph

import (
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/minic"
)

func compile(t *testing.T, src string) *dex.Program {
	t.Helper()
	p, err := minic.CompileSource("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func graphFor(t *testing.T, p *dex.Program, name string) *Graph {
	t.Helper()
	id, ok := p.MethodByName(name)
	if !ok {
		t.Fatalf("no method %s", name)
	}
	g, err := Build(p, p.Method(id))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

const loopSrc = `
func work(int n) int {
	int sum = 0;
	for (int i = 0; i < n; i = i + 1) {
		for (int j = 0; j < i; j = j + 1) {
			sum = sum + j;
		}
	}
	return sum;
}
func main() int { return work(10); }
`

func TestBuildBasicStructure(t *testing.T) {
	p := compile(t, loopSrc)
	g := graphFor(t, p, "work")
	if len(g.Blocks) < 5 {
		t.Fatalf("only %d blocks for a double loop", len(g.Blocks))
	}
	if g.Blocks[0].ID != 0 || len(g.Blocks[0].Preds) != 0 {
		t.Error("entry block malformed")
	}
	// Every edge must be symmetric.
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, pr := range s.Preds {
				if pr == b {
					found = true
				}
			}
			if !found {
				t.Errorf("edge %d->%d not in preds", b.ID, s.ID)
			}
		}
	}
}

func TestDominatorsOfDiamond(t *testing.T) {
	p := compile(t, `
func pick(int x) int {
	int r = 0;
	if (x > 0) { r = 1; } else { r = 2; }
	return r;
}
func main() int { return pick(1); }
`)
	g := graphFor(t, p, "pick")
	entry := g.Blocks[0]
	for _, b := range g.Blocks[1:] {
		if !g.Dominates(entry, b) {
			t.Errorf("entry does not dominate block %d", b.ID)
		}
	}
	// The join block has two predecessors; neither arm dominates it.
	for _, b := range g.Blocks {
		if len(b.Preds) == 2 {
			for _, p := range b.Preds {
				if g.Dominates(p, b) && len(p.Succs) == 1 {
					t.Errorf("arm %d dominates join %d", p.ID, b.ID)
				}
			}
		}
	}
}

// loopHeaders returns the blocks of g that IsLoopHeader accepts, in block
// order.
func loopHeaders(g *Graph) []*Block {
	var heads []*Block
	for _, b := range g.Blocks {
		if g.IsLoopHeader(b) {
			heads = append(heads, b)
		}
	}
	return heads
}

// naturalLoop returns the body of the loop headed by h: h and every block
// that reaches a back-edge tail of h without passing through h.
func naturalLoop(g *Graph, h *Block) map[*Block]bool {
	body := map[*Block]bool{h: true}
	var work []*Block
	for _, p := range h.Preds {
		if g.Dominates(h, p) && !body[p] {
			body[p] = true
			work = append(work, p)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range b.Preds {
			if !body[p] {
				body[p] = true
				work = append(work, p)
			}
		}
	}
	return body
}

// loopSrc's work has two loop headers, the inner nested in the outer: only
// they get the baseline's loop-header GC check.
func TestLoopDetectionAndNesting(t *testing.T) {
	p := compile(t, loopSrc)
	g := graphFor(t, p, "work")
	heads := loopHeaders(g)
	if len(heads) != 2 {
		t.Fatalf("found %d loop headers, want 2", len(heads))
	}
	outer, inner := heads[0], heads[1]
	if !g.Dominates(outer, inner) || g.Dominates(inner, outer) {
		t.Errorf("header b%d does not nest inside header b%d", inner.ID, outer.ID)
	}
	outerBody, innerBody := naturalLoop(g, outer), naturalLoop(g, inner)
	for b := range innerBody {
		if !outerBody[b] {
			t.Errorf("inner loop block b%d outside outer loop", b.ID)
		}
	}
	if len(outerBody) <= len(innerBody) {
		t.Error("outer loop not larger than inner")
	}
}

// Each loop header is the target of a back edge whose tail it dominates and
// which lies inside its loop.
func TestBackEdges(t *testing.T) {
	p := compile(t, loopSrc)
	g := graphFor(t, p, "work")
	heads := loopHeaders(g)
	if len(heads) == 0 {
		t.Fatal("no loop headers")
	}
	for _, h := range heads {
		body := naturalLoop(g, h)
		back := 0
		for _, tail := range h.Preds {
			if !g.Dominates(h, tail) {
				continue
			}
			back++
			if !body[tail] {
				t.Errorf("back-edge tail b%d outside loop b%d", tail.ID, h.ID)
			}
		}
		if back == 0 {
			t.Errorf("loop at block b%d has no back edges", h.ID)
		}
	}
}

// Regression: blocks must never share Args backing arrays with the original
// method — passes mutate block instructions in place, and aliasing silently
// corrupted programs for every later consumer of the same dex.Program.
func TestBuildDeepCopiesCallArgs(t *testing.T) {
	p := compile(t, `
func callee(int a, int b) int { return a + b; }
func main() int { return callee(1, 2); }`)
	id, _ := p.MethodByName("main")
	m := p.Method(id)
	g, err := Build(p, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks {
		for i := range b.Insns {
			in := &b.Insns[i]
			if in.Args == nil {
				continue
			}
			// Mutate the block's copy; the original must not change.
			orig := make([]int, len(in.Args))
			var src *dex.Insn
			for j := range m.Code {
				if m.Code[j].Op == in.Op && m.Code[j].Sym == in.Sym && m.Code[j].Args != nil {
					src = &m.Code[j]
				}
			}
			if src == nil {
				continue
			}
			copy(orig, src.Args)
			for j := range in.Args {
				in.Args[j] = 99
			}
			for j := range src.Args {
				if src.Args[j] != orig[j] {
					t.Fatal("block instruction aliases the method's Args array")
				}
			}
		}
	}
}
