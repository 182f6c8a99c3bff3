package lir

import (
	"testing"

	"replayopt/internal/minic"
)

// inlineChainsSrc has inlined results that feed other inlined calls: sgn's
// result (a phi over its three returns) reaches id's parameter from another
// block, id returns its parameter, and add(id(..), id(id(..))) nests calls
// that later rounds inline.
const inlineChainsSrc = `
func id(int x) int { return x; }
func sgn(int x) int {
	if (x < 0) { return 0 - 1; }
	if (x > 0) { return 1; }
	return 0;
}
func add(int a, int b) int { return a + b; }
func main() int {
	int s = 0;
	for (int i = 0 - 5; i < 6; i = i + 1) {
		int a = sgn(i);
		if (i > 2) { s = s + 1; }
		s = s + id(a) * 5;
		s = s + add(id(sgn(i)), id(id(i))) * 3 + sgn(add(i, id(2)));
	}
	return s;
}`

// TestInlineSubstitutionChains checks inline's one substitution sweep per
// round: every use of an inlined call or of a callee parameter must end at
// the value the chain of replacements leads to, after a round, after every
// round, and after a pass that fails part-way; and the compiled program must
// compute what the interpreter does.
func TestInlineSubstitutionChains(t *testing.T) {
	prog, err := minic.CompileSource("chains", inlineChainsSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := PassByName("inline")
	inline := func(f *Function, ctx *PassContext, rounds int) error {
		return info.Run(f, ctx, resolveParams(info, map[string]int{"rounds": rounds}))
	}
	calls := func(f *Function) int {
		n := 0
		for _, b := range f.Blocks {
			for _, v := range b.Insns {
				if v.Op == OpCallStatic {
					n++
				}
			}
		}
		return n
	}
	// Each round inlines at most one call per block (the rest move to the
	// call's continuation block), so a body of chained calls takes several
	// passes to inline completely.
	for _, rounds := range []int{1, 6} {
		f, err := BuildSSA(prog, prog.Entry)
		if err != nil {
			t.Fatal(err)
		}
		left := calls(f)
		for pass := 0; left > 0; pass++ {
			if pass == 10 {
				t.Fatalf("rounds=%d: %d static calls left after %d passes\n%s", rounds, left, pass, f)
			}
			if err := inline(f, &PassContext{}, rounds); err != nil {
				t.Fatalf("rounds=%d: %v", rounds, err)
			}
			if err := VerifyIR(f); err != nil {
				t.Fatalf("rounds=%d: %v\n%s", rounds, err, f)
			}
			n := calls(f)
			if n >= left {
				t.Fatalf("rounds=%d: pass %d left %d of %d static calls\n%s", rounds, pass, n, left, f)
			}
			left = n
		}
	}

	// A pass that runs out of values part-way leaves consistent IR: the
	// substitutions of the sites it inlined are applied before it returns.
	f, err := BuildSSA(prog, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &PassContext{maxValues: f.NumValues() + 12}
	if _, ok := inline(f, ctx, 6).(*TimeoutError); !ok {
		t.Fatalf("inline under a tight value cap: want a TimeoutError")
	}
	if err := VerifyIR(f); err != nil {
		t.Fatalf("after a failed inline: %v\n%s", err, f)
	}

	want, _, _ := interpRun(t, prog)
	for _, rounds := range []int{1, 6} {
		cfg := O0()
		cfg.Passes = []PassSpec{{Name: "inline", Params: map[string]int{"rounds": rounds}}, {Name: "gvn"}, {Name: "dce"}}
		if got, _, _ := runCompiled(t, prog, mustCompileAll(t, prog, cfg, nil)); got != want {
			t.Errorf("rounds=%d: compiled result %d, interpreter %d", rounds, int64(got), int64(want))
		}
	}
}
