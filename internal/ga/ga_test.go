package ga

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"replayopt/internal/lir"
)

// synthEval is a deterministic synthetic fitness landscape: certain passes
// help (once each), unsafe defaults miscompile, and a mild noise term makes
// the t-test machinery do real work. It honors the Evaluator contract: safe
// for concurrent use, and a pure function of cfg (noise is seeded from the
// configuration fingerprint, never drawn from shared state).
type synthEval struct {
	// evaluations counts Evaluate calls.
	evaluations atomic.Int64
}

var helpful = map[string]float64{
	"unroll": 18, "bce": 9, "gccheckelim": 12, "licm": 7,
	"inline": 6, "gvn": 4, "storeforward": 3, "devirt": 8,
}

func (e *synthEval) Evaluate(cfg lir.Config) Evaluation {
	e.evaluations.Add(1)
	base := 100.0
	seenHelp := map[string]bool{}
	for _, p := range cfg.Passes {
		// Unsafe parameters miscompile deterministically.
		info, ok := lir.PassByName(p.Name)
		if !ok {
			return Evaluation{Outcome: OutcomeCompilerError}
		}
		for _, ps := range info.Params {
			if v, set := p.Params[ps.Name]; set && ps.Unsafe && v != ps.Default {
				return Evaluation{Outcome: OutcomeWrongOutput}
			}
		}
		if p.Name == "vectorize" {
			return Evaluation{Outcome: OutcomeCompilerError}
		}
		if h, ok := helpful[p.Name]; ok && !seenHelp[p.Name] {
			base -= h
			seenHelp[p.Name] = true
		}
		base += 0.4 // every pass costs a little (code size / overheads)
	}
	if cfg.Lower.Machine.FuseMaddFloat {
		return Evaluation{Outcome: OutcomeWrongOutput}
	}
	if cfg.Lower.FusedAddressing {
		base -= 5
	}
	if base < 10 {
		base = 10
	}
	nrng := rand.New(rand.NewSource(int64(cfg.Fingerprint())))
	times := make([]float64, 10)
	for i := range times {
		times[i] = base * (1 + nrng.NormFloat64()*0.01)
	}
	h := fnv.New64a()
	for _, p := range cfg.Passes {
		h.Write([]byte(p.Name))
	}
	return Evaluation{
		Outcome:    OutcomeCorrect,
		TimesMs:    times,
		MeanMs:     base,
		SizeBytes:  1000 + 10*len(cfg.Passes),
		BinaryHash: h.Sum64(),
	}
}

func searchOnce(t *testing.T, seed int64) (*Result, *synthEval) {
	t.Helper()
	ev := &synthEval{}
	opts := DefaultOptions()
	opts.Population = 20
	opts.Generations = 8
	opts.HillClimbBudget = 15
	opts.BaselineAndroidMs = 95
	opts.BaselineO3Ms = 90
	res := Search(rand.New(rand.NewSource(seed)), ev, opts)
	return res, ev
}

func TestSearchFindsGoodGenomes(t *testing.T) {
	res, _ := searchOnce(t, 1)
	if res.BestEval.Outcome.Failed() {
		t.Fatalf("best genome failed: %s", res.BestEval.Outcome)
	}
	// The landscape's floor is ~35-45 with several helpful passes; random
	// genomes average far above that.
	if res.BestEval.MeanMs > 75 {
		t.Errorf("search plateaued at %.1f ms", res.BestEval.MeanMs)
	}
	// The best genome should include at least two helpful passes.
	found := 0
	for _, g := range res.Best.Genes {
		if g.Kind == GenePass {
			if _, ok := helpful[g.Pass.Name]; ok {
				found++
			}
		}
	}
	if found < 2 {
		t.Errorf("best genome has only %d helpful passes: %s", found, res.Best)
	}
}

func TestSearchIsDeterministic(t *testing.T) {
	a, _ := searchOnce(t, 7)
	b, _ := searchOnce(t, 7)
	if a.Best.String() != b.Best.String() {
		t.Errorf("same seed, different best genome:\n%s\n%s", a.Best, b.Best)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Errorf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
}

func TestTraceRecordsGenerations(t *testing.T) {
	res, ev := searchOnce(t, 3)
	if len(res.Trace) != int(ev.evaluations.Load()) {
		t.Errorf("trace has %d records, evaluator saw %d", len(res.Trace), ev.evaluations.Load())
	}
	gens := map[int]int{}
	for i, r := range res.Trace {
		if r.Index != i {
			t.Fatalf("trace index %d holds record %d", i, r.Index)
		}
		gens[r.Generation]++
	}
	if gens[0] < 20 {
		t.Errorf("first generation has %d evaluations, want >= population", gens[0])
	}
	if len(gens) < 3 {
		t.Errorf("only %d generations traced", len(gens))
	}
}

func TestFailedGenomesAreNeverSelectedAsBest(t *testing.T) {
	res, _ := searchOnce(t, 5)
	if res.BestEval.Outcome.Failed() {
		t.Fatal("failed genome selected as best")
	}
	// There must be failed evaluations in the trace (Fig. 9's sub-optimal/
	// broken genomes keep appearing); the unsafe share of the catalog
	// guarantees it over hundreds of evaluations.
	failed := 0
	for _, r := range res.Trace {
		if r.Eval.Outcome.Failed() {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no failed genomes in the whole search — space too safe")
	}
}

func TestDecodeOrdersPassesAndMergesLlc(t *testing.T) {
	g := &Genome{Genes: []Gene{
		{Kind: GenePass, Pass: lir.PassSpec{Name: "gvn"}},
		{Kind: GeneLlc, LlcName: "num-regs", LlcValue: 12},
		{Kind: GenePass, Pass: lir.PassSpec{Name: "dce"}},
		{Kind: GeneLlc, LlcName: "num-regs", LlcValue: 20}, // overrides
	}}
	cfg := g.Decode()
	if len(cfg.Passes) != 2 || cfg.Passes[0].Name != "gvn" || cfg.Passes[1].Name != "dce" {
		t.Errorf("passes decoded wrong: %+v", cfg.Passes)
	}
	if cfg.Lower.Machine.NumRegs != 20 {
		t.Errorf("llc merge wrong: NumRegs = %d", cfg.Lower.Machine.NumRegs)
	}
}

func TestDedupeAdjacent(t *testing.T) {
	g := &Genome{Genes: []Gene{
		{Kind: GenePass, Pass: lir.PassSpec{Name: "dce"}},
		{Kind: GenePass, Pass: lir.PassSpec{Name: "dce"}},
		{Kind: GenePass, Pass: lir.PassSpec{Name: "gvn"}},
		{Kind: GenePass, Pass: lir.PassSpec{Name: "dce"}},
	}}
	dedupeAdjacent(g)
	if len(g.Genes) != 3 {
		t.Errorf("dedupe left %d genes: %s", len(g.Genes), g)
	}
}

func TestBetterPrefersSmallerOnTies(t *testing.T) {
	mk := func(mean float64, size int) Evaluation {
		times := make([]float64, 10)
		for i := range times {
			times[i] = mean + float64(i%3)*0.001
		}
		return Evaluation{Outcome: OutcomeCorrect, TimesMs: times, MeanMs: mean, SizeBytes: size}
	}
	a := mk(50, 900)
	b := mk(50, 1200)
	if !better(a, b) {
		t.Error("equal speed: smaller binary must win")
	}
	fast := mk(30, 5000)
	if !better(fast, a) {
		t.Error("clearly faster genome must win regardless of size")
	}
	bad := Evaluation{Outcome: OutcomeWrongOutput}
	if better(bad, a) || !better(a, bad) {
		t.Error("failed genome ordered above a correct one")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := &Genome{Genes: []Gene{{Kind: GenePass, Pass: lir.PassSpec{
		Name: "unroll", Params: map[string]int{"factor": 4}}}}}
	c := g.Clone()
	c.Genes[0].Pass.Params["factor"] = 8
	if g.Genes[0].Pass.Params["factor"] != 4 {
		t.Error("clone shares parameter maps")
	}
}

// fpEval is synthEval that also records, in call order, the fingerprint of
// every configuration it measures. It is for single-worker searches only.
type fpEval struct {
	synthEval
	fps []uint64
}

func (e *fpEval) Evaluate(cfg lir.Config) Evaluation {
	e.fps = append(e.fps, cfg.Fingerprint())
	return e.synthEval.Evaluate(cfg)
}

// Trace records share their genes' parameter maps with the genomes the
// search goes on breeding, so no operator may write a map a gene already
// holds: every trace genome must decode at the end of the search to the
// configuration that was measured when it was recorded, and tweak must
// leave its input gene's map alone.
func TestTraceGenomesStayAsRecorded(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ev := &fpEval{}
		opts := DefaultOptions()
		opts.Population, opts.Generations, opts.HillClimbBudget = 16, 6, 40
		opts.Parallelism = 1
		res := Search(rand.New(rand.NewSource(seed)), ev, opts)
		if len(res.Trace) != len(ev.fps) {
			t.Fatalf("seed %d: %d trace records, %d evaluations", seed, len(res.Trace), len(ev.fps))
		}
		for i, rec := range res.Trace {
			if got := rec.Genome.Decode().Fingerprint(); got != ev.fps[i] {
				t.Fatalf("seed %d: trace record %d now decodes to %016x (%s), measured as %016x",
					seed, i, got, rec.Genome, ev.fps[i])
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	s := &searcher{rng: rng, opts: DefaultOptions(), pool: lir.OptCatalog()}
	for _, name := range lir.PassNames() {
		info, _ := lir.PassByName(name)
		if len(info.Params) == 0 {
			continue
		}
		params := map[string]int{}
		for _, ps := range info.Params {
			params[ps.Name] = ps.Default
		}
		want := fmt.Sprint(params)
		gn := Gene{Kind: GenePass, Pass: lir.PassSpec{Name: name, Params: params}}
		for i := 0; i < 20; i++ {
			s.tweak(gn)
		}
		if got := fmt.Sprint(params); got != want {
			t.Errorf("tweak wrote %s's parameter map: %s, was %s", name, got, want)
		}
	}
}

func TestPresetSeedingGuaranteesFloor(t *testing.T) {
	// With preset seeding the best genome can never be worse than O3 on the
	// synthetic landscape, even with a tiny budget.
	ev := &synthEval{}
	o3 := ev.Evaluate(mustPreset("O3"))
	opts := DefaultOptions()
	opts.Population = 6
	opts.Generations = 2
	opts.HillClimbBudget = 0
	res := Search(rand.New(rand.NewSource(2)), ev, opts)
	if res.BestEval.MeanMs > o3.MeanMs*1.0001 {
		t.Errorf("seeded search (%.2f) worse than O3 (%.2f)", res.BestEval.MeanMs, o3.MeanMs)
	}
}

func mustPreset(name string) lir.Config {
	cfg, ok := lir.Preset(name)
	if !ok {
		panic(name)
	}
	return cfg
}

func TestGenomeFromConfigRoundTrip(t *testing.T) {
	cfg := mustPreset("O3")
	g := GenomeFromConfig(cfg)
	back := g.Decode()
	if len(back.Passes) != len(cfg.Passes) {
		t.Fatalf("pass count %d != %d", len(back.Passes), len(cfg.Passes))
	}
	for i := range cfg.Passes {
		if back.Passes[i].Name != cfg.Passes[i].Name {
			t.Errorf("pass %d: %s != %s", i, back.Passes[i].Name, cfg.Passes[i].Name)
		}
		for k, v := range cfg.Passes[i].Params {
			if back.Passes[i].Params[k] != v {
				t.Errorf("pass %d param %s: %d != %d", i, k, back.Passes[i].Params[k], v)
			}
		}
	}
	if back.Lower.FusedAddressing != cfg.Lower.FusedAddressing ||
		back.Lower.Machine.Schedule != cfg.Lower.Machine.Schedule {
		t.Error("lowering flags lost in round trip")
	}
}

func TestHillClimbOnlyImproves(t *testing.T) {
	ev := &synthEval{}
	opts := DefaultOptions()
	opts.Population = 10
	opts.Generations = 3
	opts.HillClimbBudget = 0
	noHC := Search(rand.New(rand.NewSource(9)), ev, opts)

	ev2 := &synthEval{}
	opts.HillClimbBudget = 25
	withHC := Search(rand.New(rand.NewSource(9)), ev2, opts)
	if withHC.BestEval.MeanMs > noHC.BestEval.MeanMs*1.0001 {
		t.Errorf("hill climb made things worse: %.2f vs %.2f",
			withHC.BestEval.MeanMs, noHC.BestEval.MeanMs)
	}
}

// Property: RandomGenome always decodes to a pipeline lir accepts (every
// pass name registered, every parameter within its declared domain), and
// Decode is a pure function of the genes.
func TestRandomGenomeAlwaysDecodesValid(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGenome(rng, DefaultOptions())
		cfg := g.Decode()
		for _, p := range cfg.Passes {
			info, ok := lir.PassByName(p.Name)
			if !ok {
				t.Logf("seed %d: unknown pass %q", seed, p.Name)
				return false
			}
			for name, v := range p.Params {
				if name == "" {
					continue // positional-repeat marker, ignored by passes
				}
				found := false
				for _, ps := range info.Params {
					if ps.Name == name {
						found = true
						if v < ps.Min || v > ps.Max {
							t.Logf("seed %d: %s.%s = %d outside [%d,%d]",
								seed, p.Name, name, v, ps.Min, ps.Max)
							return false
						}
					}
				}
				if !found {
					t.Logf("seed %d: %s has no param %q", seed, p.Name, name)
					return false
				}
			}
		}
		// Purity: decoding twice gives identical pipelines.
		again := g.Decode()
		if len(again.Passes) != len(cfg.Passes) {
			return false
		}
		for i := range cfg.Passes {
			if cfg.Passes[i].Name != again.Passes[i].Name {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: GenomeFromConfig∘Decode preserves the pass pipeline exactly and
// the four preset-encoded llc flags (the preset seeding path depends on
// this; fuse-madd-float, num-regs and block-align are deliberately not
// encoded).
func TestGenomeConfigRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGenome(rng, DefaultOptions())
		cfg := g.Decode()
		back := GenomeFromConfig(cfg).Decode()
		if len(back.Passes) != len(cfg.Passes) {
			return false
		}
		for i := range cfg.Passes {
			a, b := cfg.Passes[i], back.Passes[i]
			if a.Name != b.Name || len(a.Params) != len(b.Params) {
				return false
			}
			for k, v := range a.Params {
				if b.Params[k] != v {
					return false
				}
			}
		}
		return back.Lower.FusedAddressing == cfg.Lower.FusedAddressing &&
			back.Lower.Machine.FuseLiterals == cfg.Lower.Machine.FuseLiterals &&
			back.Lower.Machine.FuseMaddInt == cfg.Lower.Machine.FuseMaddInt &&
			back.Lower.Machine.Schedule == cfg.Lower.Machine.Schedule
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: mutation never produces an invalid gene — whatever the seed,
// every mutated genome still decodes to registered passes in-domain.
func TestMutationPreservesValidity(t *testing.T) {
	opts := DefaultOptions()
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &searcher{rng: rng, opts: opts, pool: lir.OptCatalog()}
		g := RandomGenome(rng, opts)
		for i := 0; i < 20; i++ {
			s.mutate(g)
		}
		for _, p := range g.Decode().Passes {
			info, ok := lir.PassByName(p.Name)
			if !ok {
				return false
			}
			for name, v := range p.Params {
				for _, ps := range info.Params {
					if ps.Name == name && (v < ps.Min || v > ps.Max) {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecisionTraceDigests pins the full decision trace of two seeded
// searches over the synthetic landscape. Every §4 hyperparameter steers
// these traces, so a change to any of them, or to the order of the search's
// RNG draws, changes a digest.
func TestDecisionTraceDigests(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want string
	}{
		{1, "900d186bc76f7aa8f9b9481b595fdc1647239f6f44105ea1b06e1869cbf0c0c8"},
		{7, "7e26729a6ae32bd0226e929853cefcb1b60c29cf96a9f4ef1ccb52f514239177"},
	} {
		res, _ := searchOnce(t, c.seed)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.DecisionTrace()))); got != c.want {
			t.Errorf("seed %d: decision trace digest %s, want %s", c.seed, got, c.want)
		}
	}
}
