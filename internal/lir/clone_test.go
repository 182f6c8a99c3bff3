package lir_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/profile"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

// TestCloneFidelity clones every compilable method of every app, as BuildSSA
// returns it and after O2's passes: the copy must hash the same, carry the
// same ID counters and analysis caches, and a pipeline run on the copy must
// leave the original's hash and caches alone.
func TestCloneFidelity(t *testing.T) {
	edited := 0
	for _, spec := range apps.All() {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		prog := app.Prog
		for i, m := range prog.Methods {
			if m.Uncompilable {
				continue
			}
			for _, stage := range []string{"built", "O2"} {
				f, err := lir.BuildSSA(prog, dex.MethodID(i))
				if err != nil {
					t.Fatalf("%s/%s: %v", spec.Name, m.Name, err)
				}
				if stage == "O2" {
					for _, ps := range lir.O2().Passes {
						if err := lir.RunPassForTest(f, ps.Name, ps.Params); err != nil {
							t.Fatalf("%s/%s: %s: %v", spec.Name, m.Name, ps.Name, err)
						}
					}
				}
				hash, state := lir.HashFunction(f), lir.AnalysisState(f)
				c := lir.Clone(f)
				if got := lir.HashFunction(c); got != hash {
					t.Fatalf("%s/%s (%s): clone hashes %016x, original %016x", spec.Name, m.Name, stage, got, hash)
				}
				if got := lir.AnalysisState(c); got != state {
					t.Fatalf("%s/%s (%s): clone state\n%s\noriginal\n%s", spec.Name, m.Name, stage, got, state)
				}
				for _, ps := range lir.O3().Passes {
					if err := lir.RunPassForTest(c, ps.Name, ps.Params); err != nil {
						t.Fatalf("%s/%s (%s): clone: %s: %v", spec.Name, m.Name, stage, ps.Name, err)
					}
				}
				if lir.HashFunction(c) != hash {
					edited++
				}
				if lir.HashFunction(f) != hash || lir.AnalysisState(f) != state {
					t.Fatalf("%s/%s (%s): editing the clone changed the original", spec.Name, m.Name, stage)
				}
			}
		}
	}
	if edited == 0 {
		t.Fatal("O3 changed no clone; the test edits nothing")
	}
}

// TestRecomputeStampOracle compiles every app under TestCompileIdentity's
// configuration list with every stamped Recompute skip checked against a
// full recompute on a copy: block order, edges, rpo, IDom and dominator
// numbering must all agree.
func TestRecomputeStampOracle(t *testing.T) {
	var skips atomic.Int64
	var once sync.Once
	defer lir.OnStampSkip(func(f *lir.Function, err error) {
		skips.Add(1)
		if err != nil {
			once.Do(func() { t.Errorf("%s: stamped Recompute skip differs from a full one: %v", f.Name, err) })
		}
	})()
	configs := identityConfigs()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, spec := range apps.All() {
		wg.Add(1)
		go func(spec apps.Spec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			app, err := apps.Build(spec)
			if err != nil {
				t.Errorf("%s: %v", spec.Name, err)
				return
			}
			static := profile.Analyze(app.Prog).Effects
			vra.Attach(static)
			pts.Attach(static)
			for _, c := range configs {
				for i, m := range app.Prog.Methods {
					if !m.Uncompilable {
						lir.CompileMethod(app.Prog, dex.MethodID(i), c.cfg, nil, static) // errors are TestCompileIdentity's business
					}
				}
			}
		}(spec)
	}
	wg.Wait()
	if skips.Load() == 0 {
		t.Fatal("no Recompute was skipped; the oracle checked nothing")
	}
	t.Logf("%d stamped skips checked", skips.Load())
}

// TestCompileMatchesCompileMethod checks that one Compile, whose methods
// share one SSA cache, produces the image that compiling each method on its
// own does, under pipelines that inline deeply.
func TestCompileMatchesCompileMethod(t *testing.T) {
	deep := lir.O3()
	deep.Passes = append(deep.Passes, lir.PassSpec{Name: "inline", Params: map[string]int{"threshold": 4000, "rounds": 6}})
	for _, spec := range apps.All() {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		prog := app.Prog
		for _, cfg := range []lir.Config{lir.O2(), deep} {
			code, err := lir.Compile(prog, nil, cfg, nil, nil)
			want := machine.NewProgram()
			var werr error
			for i, m := range prog.Methods {
				if m.Uncompilable {
					continue
				}
				fn, err := lir.CompileMethod(prog, dex.MethodID(i), cfg, nil, nil)
				if err != nil {
					werr = err
					break
				}
				want.Fns[dex.MethodID(i)] = fn
			}
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s: Compile error %v, CompileMethod error %v", spec.Name, err, werr)
			}
			if err == nil && machine.HashProgram(code) != machine.HashProgram(want) {
				t.Errorf("%s: Compile's image differs from CompileMethod's", spec.Name)
			}
		}
	}
}

// sameIRSrc has a loop (phis), a branch, a float and a call.
const sameIRSrc = `
func scale(int x) int { return x * 3; }
func work(int n) int {
	int s = 0;
	float f = 0.5;
	for (int i = 0; i < n; i = i + 1) {
		if (s > 7) { s = s - scale(i); } else { s = s + i; }
		f = f * 1.5;
	}
	return s + ftoi(f);
}
func main() int { return work(9); }
`

// TestSameIR changes one thing SameIR compares at a time, on a copy of a
// built function, and expects false, with HashFunction disagreeing too;
// copies and edits that are undone again are the same IR.
func TestSameIR(t *testing.T) {
	prog, err := minic.CompileSource("sameir", sameIRSrc)
	if err != nil {
		t.Fatal(err)
	}
	var base *lir.Function
	for i, m := range prog.Methods {
		if m.Name == "work" {
			if base, err = lir.BuildSSA(prog, dex.MethodID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if base == nil {
		t.Fatal("no method work")
	}
	// The parts of a copy each case edits: a value with two arguments, a
	// value defined elsewhere, a block with phis and a branch block.
	type parts struct {
		f        *lir.Function
		v, other *lir.Value
		phis, br *lir.Block
	}
	find := func(f *lir.Function) parts {
		p := parts{f: f}
		for _, b := range f.Blocks {
			if len(b.Phis) > 0 && p.phis == nil {
				p.phis = b
			}
			if len(b.Succs) == 2 && p.br == nil {
				p.br = b
			}
			for _, v := range b.Insns {
				if len(v.Args) == 2 && p.v == nil {
					p.v = v
				}
			}
		}
		for _, b := range f.Blocks {
			for _, v := range b.Insns {
				if p.other == nil && p.v != nil && v.Type != lir.TVoid && v.ID != p.v.Args[0].ID && v.ID != p.v.Args[1].ID {
					p.other = v
				}
			}
		}
		if p.v == nil || p.other == nil || p.phis == nil || p.br == nil {
			t.Fatalf("fixture lacks a part: %+v", p)
		}
		return p
	}
	find(base)
	differ := map[string]func(p parts){
		"block ID":           func(p parts) { p.br.ID += 1000 },
		"block order":        func(p parts) { p.f.Blocks[1], p.f.Blocks[2] = p.f.Blocks[2], p.f.Blocks[1] },
		"phi list":           func(p parts) { p.phis.Phis = p.phis.Phis[:len(p.phis.Phis)-1] },
		"instruction list":   func(p parts) { p.br.Insns = p.br.Insns[1:] },
		"value ID":           func(p parts) { p.v.ID += 1000 },
		"op":                 func(p parts) { p.v.Op = lir.OpXor },
		"type":               func(p parts) { p.v.Type = lir.TRef },
		"immediate":          func(p parts) { p.v.Imm++ },
		"float":              func(p parts) { p.v.F = 2.5 },
		"float sign of zero": func(p parts) { p.v.F = math.Copysign(0, -1) },
		"symbol":             func(p parts) { p.v.Sym++ },
		"slot":               func(p parts) { p.v.Slot++ },
		"condition":          func(p parts) { p.v.Cond++ },
		"hint":               func(p parts) { p.v.Hint++ },
		"no-trap mark":       func(p parts) { p.v.NoTrap = !p.v.NoTrap },
		"argument":           func(p parts) { p.v.Args[0] = p.other },
		"argument count":     func(p parts) { p.v.Args = p.v.Args[:1] },
		"successor":          func(p parts) { p.br.Succs[0] = p.f.Blocks[0] },
		"successor order":    func(p parts) { p.br.Succs[0], p.br.Succs[1] = p.br.Succs[1], p.br.Succs[0] },
		"predecessor":        func(p parts) { p.phis.Preds[0] = p.br },
		"predecessor count":  func(p parts) { p.phis.Preds = p.phis.Preds[:1] },
		"phi argument": func(p parts) {
			phi := p.phis.Phis[0]
			if phi.Args[0].ID == p.other.ID {
				phi.Args[0] = p.v
			} else {
				phi.Args[0] = p.other
			}
		},
		"terminator replaced": func(p parts) { p.br.Insns[len(p.br.Insns)-1] = p.other },
	}
	same := map[string]func(p parts){
		"copy": func(p parts) {},
		"restored immediate": func(p parts) {
			p.v.Imm += 7
			p.v.Imm -= 7
		},
		"restored instruction list": func(p parts) {
			body := p.br.Insns
			p.br.Insns = append(append([]*lir.Value{}, body[1:]...), body[0])
			p.br.Insns = body
		},
		"argument copy with the same ID": func(p parts) {
			a := *p.v.Args[0]
			p.v.Args[0] = &a
		},
		"analysis caches": func(p parts) { p.br.IDom = nil },
	}
	for name, edit := range differ {
		c := lir.Clone(base)
		edit(find(c))
		if lir.SameIR(base, c) || lir.SameIR(c, base) {
			t.Errorf("%s changed: SameIR still true", name)
		}
		if lir.HashFunction(c) == lir.HashFunction(base) {
			t.Errorf("%s changed: HashFunction unchanged, so SameIR compares more than the hash reads", name)
		}
	}
	for name, edit := range same {
		c := lir.Clone(base)
		edit(find(c))
		if !lir.SameIR(base, c) || !lir.SameIR(c, base) {
			t.Errorf("%s: SameIR false", name)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { lir.SameIR(base, base) }); allocs != 0 {
		t.Errorf("SameIR allocates %.0f times per call", allocs)
	}
}
