package lir

import "testing"

// verifyFixture is a diamond with a merge phi:
//
//	b0: v0 = param p0; v1 = const #1; branch.eq v0 v1 -> b1, b2
//	b1: v3 = add v0 v1; jump b3
//	b2: v5 = sub v0 v1; jump b3
//	b3: v7 = phi v3 v5; return v7
type verifyFixture struct {
	f              *Function
	b0, b1, b2, b3 *Block
	p, one, x, y   *Value
	j1, j2, phi    *Value
}

func newVerifyFixture() *verifyFixture {
	fx := &verifyFixture{f: &Function{Name: "fixture"}}
	f := fx.f
	fx.b0, fx.b1, fx.b2, fx.b3 = f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	fx.p = f.NewValue(OpParam, TInt)
	fx.one = f.NewValue(OpConstInt, TInt)
	fx.one.Imm = 1
	br := f.NewValue(OpBranch, TVoid, fx.p, fx.one)
	fx.b0.Append(fx.p)
	fx.b0.Append(fx.one)
	fx.b0.AppendRaw(br)
	fx.x = f.NewValue(OpAdd, TInt, fx.p, fx.one)
	fx.j1 = f.NewValue(OpJump, TVoid)
	fx.b1.Append(fx.x)
	fx.b1.AppendRaw(fx.j1)
	fx.y = f.NewValue(OpSub, TInt, fx.p, fx.one)
	fx.j2 = f.NewValue(OpJump, TVoid)
	fx.b2.Append(fx.y)
	fx.b2.AppendRaw(fx.j2)
	fx.phi = f.NewValue(OpPhi, TInt, fx.x, fx.y)
	fx.phi.Block = fx.b3
	fx.b3.Phis = []*Value{fx.phi}
	fx.b3.AppendRaw(f.NewValue(OpReturn, TVoid, fx.phi))
	AddEdge(fx.b0, fx.b1)
	AddEdge(fx.b0, fx.b2)
	AddEdge(fx.b1, fx.b3)
	AddEdge(fx.b2, fx.b3)
	f.Blocks = []*Block{fx.b0, fx.b1, fx.b2, fx.b3}
	return fx
}

// TestVerifyIRErrorText pins the exact text of every VerifyIR violation
// class: the text reaches discard spans and tvlint reasons, so a change to
// it is a visible change to reports.
func TestVerifyIRErrorText(t *testing.T) {
	if err := VerifyIR(newVerifyFixture().f); err != nil {
		t.Fatalf("fixture is invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(fx *verifyFixture)
		want string
	}{
		{"no blocks", func(fx *verifyFixture) { fx.f.Blocks = nil },
			"lir-verify: fixture has no blocks"},
		{"block listed twice", func(fx *verifyFixture) { fx.f.Blocks = append(fx.f.Blocks, fx.b1) },
			"lir-verify: block b1 listed twice"},
		{"non-phi in phi list", func(fx *verifyFixture) { fx.b3.Phis = append(fx.b3.Phis, fx.x) },
			"lir-verify: non-phi add in b3's phi list"},
		{"phi arg count", func(fx *verifyFixture) { fx.phi.Args = append(fx.phi.Args, fx.x) },
			"lir-verify: phi v7 in b3 has 3 args for 2 preds"},
		{"phi defined twice", func(fx *verifyFixture) { fx.b3.Phis = append(fx.b3.Phis, fx.phi) },
			"lir-verify: value v7 defined in b3 and b3"},
		{"value defined twice", func(fx *verifyFixture) { fx.b2.Insns = []*Value{fx.y, fx.x, fx.j2} },
			"lir-verify: value v3 defined in b1 and b2"},
		{"phi in instruction list", func(fx *verifyFixture) { fx.b1.Insns = []*Value{fx.x, fx.phi, fx.j1} },
			"lir-verify: phi v7 in b1's instruction list"},
		{"terminator mid-block", func(fx *verifyFixture) { fx.b1.Insns = []*Value{fx.j1, fx.x} },
			"lir-verify: terminator jump mid-block in b1"},
		{"no terminator", func(fx *verifyFixture) { fx.b1.Insns = []*Value{fx.x} },
			"lir-verify: b1 has no terminator"},
		{"branch successor count", func(fx *verifyFixture) { fx.b0.Succs = fx.b0.Succs[:1] },
			"lir-verify: branch block b0 has 1 succs"},
		{"jump successor count", func(fx *verifyFixture) { fx.b1.Succs = append(fx.b1.Succs, fx.b2) },
			"lir-verify: jump block b1 has 2 succs"},
		{"exit successor count", func(fx *verifyFixture) { fx.b3.Succs = []*Block{fx.b1} },
			"lir-verify: exit block b3 has 1 succs"},
		{"foreign successor", func(fx *verifyFixture) { fx.b1.Succs[0] = fx.f.NewBlock() },
			"lir-verify: b1's successor b4 is not in the function"},
		{"pred entries for succ entries", func(fx *verifyFixture) { fx.b3.Preds = []*Block{fx.b1, fx.b1} },
			"lir-verify: edge b1->b3: 2 pred entries for 1 succ entries"},
		{"foreign predecessor", func(fx *verifyFixture) { fx.b1.Preds = append(fx.b1.Preds, fx.f.NewBlock()) },
			"lir-verify: b1's predecessor b4 is not in the function"},
		{"succ entries for pred entries", func(fx *verifyFixture) { fx.b1.Preds = append(fx.b1.Preds, fx.b2) },
			"lir-verify: edge b2->b1: 0 succ entries for 1 pred entries"},
		{"nil phi argument", func(fx *verifyFixture) { fx.phi.Args[0] = nil },
			"lir-verify: nil argument in phi v7 in b3"},
		{"nil argument", func(fx *verifyFixture) { fx.x.Args[1] = nil },
			"lir-verify: nil argument in v3 (add) in b1"},
		{"phi uses an unplaced constant", func(fx *verifyFixture) {
			// The shape unroll leaves behind: a constant created for a phi
			// argument but never placed in a block.
			fx.phi.Args[0] = fx.f.NewValue(OpConstInt, TInt)
		}, "lir-verify: phi v7 in b3 uses v9 (const) which is not defined in the function"},
		{"use of an unplaced value", func(fx *verifyFixture) { fx.x.Args[1] = fx.f.NewValue(OpConstInt, TInt) },
			"lir-verify: v3 (add) in b1 uses v9 (const) which is not defined in the function"},
		{"two values share an ID", func(fx *verifyFixture) { fx.y.ID = fx.x.ID },
			"lir-verify: two distinct values share ID v3 (add and sub)"},
		{"phi argument does not dominate its predecessor", func(fx *verifyFixture) { fx.phi.Args[0] = fx.y },
			"lir-verify: phi v7 in b3: arg v5 (sub) does not dominate predecessor b1"},
		{"use before definition", func(fx *verifyFixture) {
			z := fx.f.NewValue(OpNeg, TInt, fx.p)
			fx.b1.Insns = []*Value{fx.x, z, fx.j1}
			z.Block = fx.b1
			fx.x.Args[1] = z
		}, "lir-verify: v3 (add) in b1 uses v9 (neg) defined later in the block"},
		{"use of an unreachable definition", func(fx *verifyFixture) {
			b4 := fx.f.NewBlock()
			w := fx.f.NewValue(OpConstInt, TInt)
			b4.Append(w)
			b4.AppendRaw(fx.f.NewValue(OpReturn, TVoid, w))
			fx.f.Blocks = append(fx.f.Blocks, b4)
			fx.x.Args[1] = w
		}, "lir-verify: v3 (add) in b1 uses v9 defined in unreachable b4"},
		{"use of a non-dominating definition", func(fx *verifyFixture) { fx.x.Args[1] = fx.y },
			"lir-verify: v3 (add) in b1 uses v5 defined in non-dominating b2"},
	}
	for _, c := range cases {
		fx := newVerifyFixture()
		c.mut(fx)
		err := VerifyIR(fx.f)
		if err == nil {
			t.Errorf("%s: no error, want %q", c.name, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, err.Error(), c.want)
		}
	}
}
