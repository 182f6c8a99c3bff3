package tv

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/minic"
	"replayopt/internal/progen"
	"replayopt/internal/schema"
	"replayopt/internal/schema/schematest"
)

// A small program with loops, arrays, globals, branches, and calls — enough
// shape to exercise phis, memory ordering, and the disprover.
const testSrc = `
global int[] gia;
global int gcount;

func work(int n) int {
	gcount = n;
	int s = 0;
	for (int i = 0; i < n; i = i + 1) {
		gia[absi(s) % len(gia)] = s + 0;
		s = s + gia[absi(i) % len(gia)] * 2 + 1 * i;
	}
	if (s > 10) { gcount = s; } else { gcount = s + 1; }
	return s;
}

func main() int {
	gia = new int[16];
	gcount = 0;
	int t = 0;
	for (int r = 0; r < 3; r = r + 1) { t = t + work(9 + r); }
	return t + gcount;
}
`

func buildFn(t *testing.T, src, name string) *lir.Function {
	t.Helper()
	prog, err := minic.CompileSource("tvtest", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for id := range prog.Methods {
		if strings.HasSuffix(prog.Methods[id].Name, name) && !prog.Methods[id].Uncompilable {
			f, err := lir.BuildSSA(prog, dex.MethodID(id))
			if err != nil {
				t.Fatalf("build %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("no method %q", name)
	return nil
}

func runPass(t *testing.T, f *lir.Function, name string) {
	t.Helper()
	if err := lir.RunPassForTest(f, name, nil); err != nil {
		t.Fatalf("pass %s: %v", name, err)
	}
}

// Identity: a function is equivalent to its own clone.
func TestValidateIdentity(t *testing.T) {
	f := buildFn(t, testSrc, "work")
	v, reason := Validate(Clone(f), f, lir.Traits{})
	if v != Verified {
		t.Fatalf("identity: %s (%s)", v, reason)
	}
}

// Each pass alone, on real SSA: never Rejected; the pure scalar passes must
// come out Verified.
func TestValidateSinglePasses(t *testing.T) {
	mustVerify := map[string]bool{
		"constfold": true, "instcombine": true, "dce": true,
		"phisimplify": true, "reassoc": true,
	}
	for _, pass := range lir.PassNames() {
		for _, fname := range []string{"work", "main"} {
			f := buildFn(t, testSrc, fname)
			before := Clone(f)
			if err := lir.RunPassForTest(f, pass, nil); err != nil {
				continue // designed compile-time outcome (e.g. vectorize crash)
			}
			info, _ := lir.PassByName(pass)
			v, reason := Validate(before, f, info.Traits)
			if v == Rejected {
				t.Errorf("%s on %s: falsely rejected: %s", pass, fname, reason)
			}
			if mustVerify[pass] && v != Verified {
				t.Errorf("%s on %s: %s (%s), want verified", pass, fname, v, reason)
			}
		}
	}
}

// Golden: the full O1/O2/O3 pipelines over the test program and a batch of
// generated programs never produce a Rejected verdict, and the strict
// verifier holds between every pass.
func TestGoldenPresets(t *testing.T) {
	srcs := []string{testSrc}
	for seed := int64(0); seed < 6; seed++ {
		srcs = append(srcs, progen.Generate(rand.New(rand.NewSource(seed*37+5)), progen.Default()))
	}
	for si, src := range srcs {
		prog, err := minic.CompileSource("tvtest", src)
		if err != nil {
			t.Fatalf("src %d: %v", si, err)
		}
		for _, preset := range []string{"O1", "O2", "O3"} {
			cfg, _ := lir.Preset(preset)
			chk := NewChecker(Options{Strict: true})
			cfg.Check = chk
			if _, err := lir.Compile(prog, nil, cfg, nil, nil); err != nil {
				t.Fatalf("src %d %s: %v", si, preset, err)
			}
			verified, unverified, rejected := chk.Counts()
			if rejected != 0 {
				for _, pv := range chk.Verdicts {
					if pv.Verdict == Rejected {
						t.Errorf("src %d %s: %s on %s rejected: %s", si, preset, pv.Pass, pv.Fn, pv.Reason)
					}
				}
			}
			if verified == 0 {
				t.Errorf("src %d %s: zero verified passes (%d unverified) — normalization is broken",
					si, preset, unverified)
			}
		}
	}
}

// The deliberately broken pass is caught statically.
func TestMiscompileRejected(t *testing.T) {
	f := buildFn(t, testSrc, "work")
	before := Clone(f)
	if !skewFirstStore(f) {
		t.Fatal("skewFirstStore found nothing to mutate")
	}
	v, reason := Validate(before, f, lir.Traits{})
	if v != Rejected {
		t.Fatalf("skewed store: %s (%s), want rejected", v, reason)
	}
	if !strings.Contains(reason, "offset by 1") && !strings.Contains(reason, "became") {
		t.Fatalf("unexpected reject reason: %s", reason)
	}
}

// The checker plumbing end to end: compiling with tvbreak in the pipeline
// returns a RejectError before lowering completes.
func TestCheckerRejectsInPipeline(t *testing.T) {
	cleanup := lir.RegisterForTesting(MiscompilePass())
	defer cleanup()
	prog, err := minic.CompileSource("tvtest", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lir.O0()
	cfg.Passes = []lir.PassSpec{{Name: "constfold"}, {Name: MiscompilePassName}}
	cfg.Check = NewChecker(Options{Strict: true, Reject: true})
	_, err = lir.Compile(prog, nil, cfg, nil, nil)
	if err == nil {
		t.Fatal("tvbreak pipeline compiled cleanly")
	}
	if !strings.Contains(err.Error(), "tv: pass tvbreak rejected") {
		t.Fatalf("wrong error: %v", err)
	}
}

// Seeded corruptions: ~10 distinct ways to break a post-pass function, every
// one caught by lir.VerifyIR.
func TestSeededMutations(t *testing.T) {
	type corruption struct {
		name string
		mut  func(f *lir.Function) bool // false: no applicable site found
	}
	anyInsn := func(f *lir.Function, pred func(*lir.Value) bool) *lir.Value {
		for _, b := range f.Blocks {
			for _, v := range b.Insns {
				if pred(v) {
					return v
				}
			}
		}
		return nil
	}
	corruptions := []corruption{
		{"use-before-def swap", func(f *lir.Function) bool {
			for _, b := range f.Blocks {
				body := b.Body()
				for j := 1; j < len(body); j++ {
					for _, a := range body[j].Args {
						if a == body[j-1] {
							body[j-1], body[j] = body[j], body[j-1]
							return true
						}
					}
				}
			}
			return false
		}},
		{"phi arg count", func(f *lir.Function) bool {
			for _, b := range f.Blocks {
				for _, p := range b.Phis {
					p.Args = append(p.Args, p.Args[0])
					return true
				}
			}
			return false
		}},
		{"non-dominating phi arg", func(f *lir.Function) bool {
			// A block never dominates all of its predecessors, so feeding a
			// value defined in the block to every phi slot violates at least
			// one position.
			for _, b := range f.Blocks {
				if len(b.Phis) == 0 || len(b.Body()) == 0 {
					continue
				}
				p := b.Phis[0]
				for k := range p.Args {
					p.Args[k] = b.Body()[0]
				}
				return true
			}
			return false
		}},
		{"result type flip", func(f *lir.Function) bool {
			v := anyInsn(f, func(v *lir.Value) bool { return v.Op == lir.OpAdd })
			if v == nil {
				return false
			}
			v.Type = lir.TFloat
			return true
		}},
		{"terminator mid-block", func(f *lir.Function) bool {
			for _, b := range f.Blocks {
				if len(b.Insns) >= 2 {
					n := len(b.Insns)
					b.Insns[n-2], b.Insns[n-1] = b.Insns[n-1], b.Insns[n-2]
					return true
				}
			}
			return false
		}},
		{"branch successor dropped", func(f *lir.Function) bool {
			for _, b := range f.Blocks {
				if t := b.Term(); t != nil && t.Op == lir.OpBranch {
					b.Succs = b.Succs[:1]
					return true
				}
			}
			return false
		}},
		{"dangling pred entry", func(f *lir.Function) bool {
			for _, b := range f.Blocks {
				if len(b.Preds) > 0 && len(b.Phis) == 0 {
					b.Preds = append(b.Preds, b.Preds[0])
					return true
				}
			}
			return false
		}},
		{"duplicate value ID", func(f *lir.Function) bool {
			var vals []*lir.Value
			for _, b := range f.Blocks {
				vals = append(vals, b.Insns...)
			}
			if len(vals) < 2 {
				return false
			}
			vals[1].ID = vals[0].ID
			return true
		}},
		{"const with float type", func(f *lir.Function) bool {
			v := anyInsn(f, func(v *lir.Value) bool { return v.Op == lir.OpConstInt })
			if v == nil {
				return false
			}
			v.Type = lir.TFloat
			return true
		}},
		{"array load args swapped", func(f *lir.Function) bool {
			v := anyInsn(f, func(v *lir.Value) bool { return v.Op == lir.OpArrLoad })
			if v == nil {
				return false
			}
			v.Args[0], v.Args[1] = v.Args[1], v.Args[0]
			return true
		}},
		{"void value used as arg", func(f *lir.Function) bool {
			st := anyInsn(f, func(v *lir.Value) bool { return v.Op == lir.OpArrStore })
			add := anyInsn(f, func(v *lir.Value) bool { return v.Op == lir.OpAdd })
			if st == nil || add == nil {
				return false
			}
			add.Args[0] = st
			return true
		}},
	}
	applied := 0
	for _, c := range corruptions {
		f := buildFn(t, testSrc, "work")
		runPass(t, f, "gvn") // a realistic post-pass function
		if err := lir.VerifyIR(f); err != nil {
			t.Fatalf("%s: baseline already invalid: %v", c.name, err)
		}
		if !c.mut(f) {
			t.Errorf("%s: no applicable site in the test function", c.name)
			continue
		}
		applied++
		if err := lir.VerifyIR(f); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
	if applied < 10 {
		t.Fatalf("only %d corruptions applied, want >= 10", applied)
	}
}

// Clone must be deep: mutating the clone leaves the original intact.
func TestCloneIsDeep(t *testing.T) {
	f := buildFn(t, testSrc, "work")
	c := Clone(f)
	if err := lir.VerifyIR(c); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	skewFirstStore(c)
	if v, reason := Validate(f, Clone(f), lir.Traits{}); v != Verified {
		t.Fatalf("original damaged by clone mutation: %s (%s)", v, reason)
	}
}

// Report schema round trip.
func TestReportValidates(t *testing.T) {
	chk := NewChecker(Options{Strict: true})
	prog, err := minic.CompileSource("tvtest", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := lir.Preset("O2")
	cfg.Check = chk
	if _, err := lir.Compile(prog, nil, cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		Presets:       []PresetReport{PresetFromChecker("tvtest", "O2", chk)},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Decode(data, new(Report)); err != nil {
		t.Fatalf("own report does not validate: %v", err)
	}
	if err := schema.Decode([]byte(`{"schema_version":2}`), new(Report)); err == nil {
		t.Fatal("missing presets accepted")
	}
	bad := strings.Replace(string(data), `"verified"`, `"maybe"`, 1)
	if bad != string(data) {
		if err := schema.Decode([]byte(bad), new(Report)); err == nil {
			t.Fatal("illegal verdict string accepted")
		}
	}
}

// TestReportRejectionParity runs the report's rejection corpus: every
// corruption TestReportValidates makes, every required key deleted, every
// field given a wrong JSON type, and the numeric cases a typed decode closes.
func TestReportRejectionParity(t *testing.T) {
	chk := NewChecker(Options{Strict: true})
	prog, err := minic.CompileSource("tvtest", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := lir.Preset("O2")
	cfg.Check = chk
	if _, err := lir.Compile(prog, nil, cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	pr := PresetFromChecker("tvtest", "O2", chk)
	if len(pr.Verdicts) == 0 {
		t.Fatal("O2 produced no verdicts; the corpus assumes some")
	}
	// The corpus covers arrays through their first element, and reason
	// only where it is present.
	pr.Verdicts[0].Reason = "reason"
	data, err := json.Marshal(&Report{
		SchemaVersion: ReportSchemaVersion,
		Presets:       []PresetReport{pr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Decode(data, new(Report)); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	preset := func(doc map[string]any) map[string]any {
		return doc["presets"].([]any)[0].(map[string]any)
	}
	verdict := func(doc map[string]any) map[string]any {
		return preset(doc)["verdicts"].([]any)[0].(map[string]any)
	}
	cases := append(schematest.Corpus(t, data, reflect.TypeOf(Report{})),
		schematest.Case{Name: "missing presets", Data: []byte(`{"schema_version":2}`)},
		schematest.Corrupt(t, data, "illegal verdict string", func(doc map[string]any) { verdict(doc)["verdict"] = "maybe" }),
		schematest.Corrupt(t, data, "wrong schema version", func(doc map[string]any) { doc["schema_version"] = 1 }),
		schematest.Corrupt(t, data, "tally out of sync", func(doc map[string]any) {
			p := preset(doc)
			p["verified"] = p["verified"].(float64) + 1
		}),
		schematest.Corrupt(t, data, "empty fn", func(doc map[string]any) { verdict(doc)["fn"] = "" }),
		schematest.Corrupt(t, data, "presets null", func(doc map[string]any) { doc["presets"] = nil }),
		schematest.Corrupt(t, data, "verdicts null", func(doc map[string]any) { preset(doc)["verdicts"] = nil }),
		schematest.Corrupt(t, data, "fractional schema_version", func(doc map[string]any) {
			doc["schema_version"] = ReportSchemaVersion + 0.5
		}),
		schematest.Corrupt(t, data, "fractional tally", func(doc map[string]any) {
			p := preset(doc)
			p["verified"] = p["verified"].(float64) + 0.5
		}),
		schematest.Corrupt(t, data, "unknown key", func(doc map[string]any) { verdict(doc)["extra"] = 1 }),
		schematest.Case{Name: "trailing data", Data: append(append([]byte{}, data...), "{}"...)},
	)
	// Recorded against the map-based validator this decode replaced; it
	// rejected every other case.
	schematest.Run(t, func(data []byte) error { return schema.Decode(data, new(Report)) }, cases, map[string]string{
		"presets[0].verdicts[0].reason wrong type": "key unchecked before",
		"fractional schema_version":                "fractional schema_version",
		"fractional tally":                         "fractional count",
		"unknown key":                              "unknown key",
	})
}

// fibChain builds a straight-line function over two parameters with
// v[i+1] = v[i] + v[i-1], depth levels deep, whose last value feeds a static
// store and the return. Flattening it expands v[depth] to multiplicities of
// Fibonacci size: walking the DAG again at every level is exponential in
// depth, while merging memoized chains is linear.
func fibChain(depth int) *lir.Function {
	f := &lir.Function{Name: "fibchain"}
	b := f.NewBlock()
	f.Blocks = []*lir.Block{b}
	prev := f.NewValue(lir.OpParam, lir.TInt)
	cur := f.NewValue(lir.OpParam, lir.TInt)
	cur.Slot = 1
	b.Append(prev)
	b.Append(cur)
	for i := 0; i < depth; i++ {
		next := f.NewValue(lir.OpAdd, lir.TInt, cur, prev)
		b.Append(next)
		prev, cur = cur, next
	}
	b.Append(f.NewValue(lir.OpStaticStore, lir.TVoid, cur))
	b.AppendRaw(f.NewValue(lir.OpReturn, lir.TVoid, cur))
	return f
}

// Flattening shared add chains stays linear: 60 levels deep is Verified, and
// the allocations per validation grow no faster than the value count.
func TestValidateSharedChainIsLinear(t *testing.T) {
	f := fibChain(60)
	if err := lir.VerifyIR(f); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	if v, reason := Validate(f, Clone(f), lir.Traits{}); v != Verified {
		t.Fatalf("60-level chain: %s (%s), want verified", v, reason)
	}
	allocs := func(depth int) float64 {
		f := fibChain(depth)
		c := Clone(f)
		return testing.AllocsPerRun(5, func() { Validate(f, c, lir.Traits{}) })
	}
	a30, a60 := allocs(30), allocs(60)
	// Doubling the values may double the per-value work; the slack covers
	// slice growth, which adds allocations logarithmically.
	if a60 > 2*a30+8 {
		t.Fatalf("allocations grew superlinearly: %.0f at depth 30, %.0f at depth 60", a30, a60)
	}
	t.Logf("allocations per validation: %.0f at depth 30, %.0f at depth 60", a30, a60)
}

// Inputs the dense tables and counted chains cannot represent are answered
// Unverified, never Rejected: a multiplicity past int64 makes the chain
// opaque, and two values sharing one ID make the function unindexable.
func TestValidateDegenerateInputsAreUnverified(t *testing.T) {
	deep := fibChain(100) // Fibonacci multiplicities overflow int64 near level 92
	if v, reason := Validate(deep, Clone(deep), lir.Traits{}); v != Unverified {
		t.Errorf("overflowing chain: %s (%s), want unverified", v, reason)
	}
	f := fibChain(4)
	c := Clone(f)
	c.Blocks[0].Insns[3].ID = c.Blocks[0].Insns[2].ID
	if v, reason := Validate(f, c, lir.Traits{}); v != Unverified || !strings.Contains(reason, "share one ID") {
		t.Errorf("duplicate value ID: %s (%s), want unverified", v, reason)
	}
}
