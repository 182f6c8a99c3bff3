// Package ga implements the genetic search over the compiler's optimization
// space (§3.6) with the paper's §4 hyperparameters: 11 generations of 50
// genomes, first generation random with up-to-3 replacement of genomes worse
// than both baselines, elites/fittest/tournament mate selection (tournament
// of 7 at 90%), single-point crossover with a minimum length, 5% genome and
// per-gene mutation probabilities, a 100-identical-binaries stall halt, and
// a final hill-climbing step. Fitness is replay time; binary size breaks
// near-ties.
package ga

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"

	"replayopt/internal/lir"
	"replayopt/internal/obs"
	"replayopt/internal/stats"
)

// GeneKind discriminates genome genes.
type GeneKind uint8

// Gene kinds.
const (
	GenePass GeneKind = iota // an opt pass application
	GeneLlc                  // an llc option setting
)

// Gene is one genome element.
type Gene struct {
	Kind     GeneKind
	Pass     lir.PassSpec // GenePass
	LlcName  string       // GeneLlc
	LlcValue int
}

func (g Gene) String() string {
	if g.Kind == GeneLlc {
		return fmt.Sprintf("-%s=%d", g.LlcName, g.LlcValue)
	}
	if len(g.Pass.Params) == 0 {
		return g.Pass.Name
	}
	parts := make([]string, 0, len(g.Pass.Params))
	//detlint:allow map-range — parts are sorted before joining
	for k, v := range g.Pass.Params {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return g.Pass.Name + "(" + strings.Join(parts, ",") + ")"
}

// Genome is an optimization decision: a sequence of passes and flags.
type Genome struct {
	Genes []Gene
}

// String renders the genome compactly.
func (g *Genome) String() string {
	parts := make([]string, len(g.Genes))
	for i, gn := range g.Genes {
		parts[i] = gn.String()
	}
	return strings.Join(parts, " ")
}

// Decode lowers the genome to a compiler configuration. Pass genes apply in
// order; llc genes accumulate with later settings overriding earlier ones.
func (g *Genome) Decode() lir.Config {
	llc := map[string]int{}
	var passes []lir.PassSpec
	for _, gn := range g.Genes {
		switch gn.Kind {
		case GenePass:
			passes = append(passes, gn.Pass)
		case GeneLlc:
			llc[gn.LlcName] = gn.LlcValue
		}
	}
	return lir.Config{Passes: passes, Lower: lir.ApplyLlc(llc)}
}

// withGenes copies the genome's gene list and shares its parameter maps.
// The search never writes a map a gene already holds (tweak copies before it
// writes), so the copy can be edited gene by gene without reaching g.
func (g *Genome) withGenes() *Genome {
	out := &Genome{Genes: make([]Gene, len(g.Genes))}
	copy(out.Genes, g.Genes)
	return out
}

// Clone deep-copies the genome.
func (g *Genome) Clone() *Genome {
	out := &Genome{Genes: make([]Gene, len(g.Genes))}
	copy(out.Genes, g.Genes)
	for i := range out.Genes {
		if out.Genes[i].Pass.Params != nil {
			p := make(map[string]int, len(out.Genes[i].Pass.Params))
			//detlint:allow map-range — keyed copy of a param map; insertion order irrelevant
			for k, v := range out.Genes[i].Pass.Params {
				p[k] = v
			}
			out.Genes[i].Pass.Params = p
		}
	}
	return out
}

// Outcome classifies one evaluation (the Fig. 1 categories).
type Outcome uint8

// Evaluation outcomes.
const (
	OutcomeCorrect Outcome = iota
	OutcomeCompilerError
	OutcomeCompilerTimeout
	OutcomeRuntimeCrash
	OutcomeRuntimeTimeout
	OutcomeWrongOutput
	// OutcomeTVReject: the translation validator proved a pass miscompiled
	// the candidate, so it was discarded statically — before any replay ran.
	OutcomeTVReject
)

func (o Outcome) String() string {
	return [...]string{"correct", "compiler-error", "compiler-timeout",
		"runtime-crash", "runtime-timeout", "wrong-output", "tv-reject"}[o]
}

// Failed reports whether the genome must be discarded.
func (o Outcome) Failed() bool { return o != OutcomeCorrect }

// Evaluation is the fitness measurement of one genome.
type Evaluation struct {
	Outcome Outcome
	// TimesMs are raw replay timings (10 per §4). MeanMs is their mean
	// after MAD outlier removal.
	TimesMs []float64
	MeanMs  float64
	// SizeBytes is the binary size (the near-tie tiebreak).
	SizeBytes int
	// BinaryHash identifies identical binaries for the stall-halt rule.
	BinaryHash uint64
}

// Evaluator measures genomes; the replay-based implementation lives in
// internal/core.
//
// Concurrency contract: Search calls Evaluate from up to Options.Parallelism
// goroutines at once, so implementations must be safe for concurrent use.
// Determinism contract: the result must be a pure function of cfg — identical
// configurations must evaluate identically regardless of call order, or the
// search trace will differ across worker counts (and the memo cache would
// change results).
type Evaluator interface {
	Evaluate(cfg lir.Config) Evaluation
}

// The §4 search hyperparameters that never vary between runs.
const (
	minGenomeLen     = 2    // crossover minimum
	maxGenomeLen     = 24   // random-genome cap
	mutateGenomeProb = 0.05 // chance a child genome is mutated at all
	mutateGeneProb   = 0.05 // chance each gene of a mutated genome changes
	tournamentSize   = 7    // genomes drawn per tournament
	tournamentProb   = 0.9  // chance each pick, fittest first, is taken
	maxIdentical     = 100  // 100 identical binaries halt the search
	stallGenerations = 4    // generations without improvement before halting
	gen1Retries      = 3    // up-to-3 replacement of bad first-gen genomes
	// seedPresets injects the -O1/-O2/-O3 genomes into the first
	// generation, guaranteeing the search never ends below the presets.
	seedPresets = true
)

// Options are the §4 search budgets (defaults mirror the paper) and the
// search's execution settings.
type Options struct {
	Generations     int // 11 total, first random
	Population      int // 50
	HillClimbBudget int // extra evaluations for the final hill climb
	// BaselineMs are the Android-compiler and LLVM -O3 replay means the
	// first generation is biased against (§4).
	BaselineAndroidMs float64
	BaselineO3Ms      float64
	// Parallelism bounds the worker pool that evaluates each generation's
	// candidates (0 or less = one worker per core). Search decisions stay
	// serial, so any value yields the same trace for the same seed.
	Parallelism int
	// ExcludePasses removes the named opt passes from the catalog pool
	// before the search starts. Ablation harnesses use it to compare
	// searches over spaces with and without a pass family; the filter is
	// deterministic, so two searches with the same seed and the same
	// exclusion list produce byte-identical decision traces.
	ExcludePasses []string
	// Obs, when set, nests a span per generation (plus one for the hill
	// climb) under it and records evaluation metrics — eval-latency
	// histogram, cache hit/miss counters, worker-occupancy gauge, outcome
	// tallies — in its scope's registry. Purely observational: a nil Obs
	// and any attached sink produce byte-identical search traces.
	Obs *obs.Span
	// Journal, when set, checkpoints the search: every fresh evaluation is
	// served from the journal when already recorded (so a resumed search
	// replays its finished prefix without compiling or replaying anything)
	// and recorded otherwise. Because search decisions are a pure function
	// of (seed, evaluation results), a search resumed against the journal of
	// a killed run produces a byte-identical Result.Trace and re-runs none of
	// the finished work. See the Journal contract in journal.go.
	Journal Journal
	// Interrupt, when set, is polled at every evaluation-batch boundary on
	// the search goroutine; returning true abandons the search by unwinding
	// with an interruptPanic, which callers turn into ErrInterrupted with
	// RecoverInterrupt. Evaluations that
	// already finished have reached the Journal, so interruption never loses
	// work — it only defers it to the resuming run.
	Interrupt func() bool
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{Generations: 11, Population: 50, HillClimbBudget: 30}
}

// EvalRecord is one evaluated genome, in evaluation order (Fig. 9's x-axis).
type EvalRecord struct {
	Index      int
	Generation int
	Genome     *Genome
	Eval       Evaluation
}

// Result is the search outcome.
type Result struct {
	Best     *Genome
	BestEval Evaluation
	Trace    []EvalRecord
	// Halt describes why the search stopped.
	Halt string
	// Stats counts the evaluation work done and the work the memo cache
	// saved.
	Stats SearchStats
}

// DecisionTrace renders every input the search decisions read — trace order,
// genomes, failed bits, timings, sizes, binary hashes, and the halt reason —
// while deliberately excluding the failure *cause*. A statically tv-rejected
// candidate and the same candidate discarded by dynamic replay must steer the
// search identically (better() consumes only the failed bit), so a fixed seed
// must produce byte-equal decision traces with validation on and off; tests
// assert exactly that.
func (r *Result) DecisionTrace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "halt=%s best=%s\n", r.Halt, r.Best)
	for _, rec := range r.Trace {
		fmt.Fprintf(&b, "%d g%d [%s] failed=%v times=%v mean=%.6f size=%d bin=%016x\n",
			rec.Index, rec.Generation, rec.Genome, rec.Eval.Outcome.Failed(),
			rec.Eval.TimesMs, rec.Eval.MeanMs, rec.Eval.SizeBytes, rec.Eval.BinaryHash)
	}
	return b.String()
}

// GenomeFromConfig encodes a compiler configuration as a genome (used to
// seed searches with the -O presets). It encodes the four llc flags the
// presets can set, in an order of its own: seeded genomes appear in decision
// traces, so it is not a loop over lir's llc table.
func GenomeFromConfig(cfg lir.Config) *Genome {
	g := &Genome{}
	for _, p := range cfg.Passes {
		spec := lir.PassSpec{Name: p.Name}
		if len(p.Params) > 0 {
			spec.Params = map[string]int{}
			//detlint:allow map-range — keyed copy of a param map; insertion order irrelevant
			for k, v := range p.Params {
				spec.Params[k] = v
			}
		}
		g.Genes = append(g.Genes, Gene{Kind: GenePass, Pass: spec})
	}
	flag := func(name string, on bool) {
		if on {
			g.Genes = append(g.Genes, Gene{Kind: GeneLlc, LlcName: name, LlcValue: 1})
		}
	}
	flag("fused-addressing", cfg.Lower.FusedAddressing)
	flag("fuse-literals", cfg.Lower.Machine.FuseLiterals)
	flag("fuse-madd-int", cfg.Lower.Machine.FuseMaddInt)
	flag("list-schedule", cfg.Lower.Machine.Schedule)
	return g
}

// RandomGenome draws one genome from the same distribution the GA's first
// generation uses (Figs. 1 and 2 sample the space this way).
func RandomGenome(rng *rand.Rand, opts Options) *Genome {
	s := &searcher{rng: rng, opts: opts, pool: optPool(opts)}
	g := s.randomGenome()
	dedupeAdjacent(g)
	return g
}

// Search runs the GA. The rng seeds all stochastic decisions, so a fixed
// seed reproduces the full search — at any Options.Parallelism, because only
// candidate evaluation fans out (see pool.go) while every RNG draw stays on
// this goroutine in a fixed order.
func Search(rng *rand.Rand, eval Evaluator, opts Options) *Result {
	s := &searcher{
		rng:     rng,
		eval:    eval,
		opts:    opts,
		pool:    optPool(opts),
		seen:    map[uint64]int{},
		cache:   map[uint64]Evaluation{},
		workers: opts.workers(),
		obs:     opts.Obs,
	}
	return s.run()
}

type searcher struct {
	rng     *rand.Rand
	eval    Evaluator
	opts    Options
	pool    []lir.CatalogEntry
	trace   []EvalRecord
	seen    map[uint64]int        // binary hash -> occurrences
	cache   map[uint64]Evaluation // config fingerprint -> memoized evaluation
	stats   SearchStats
	workers int
	gen     int

	identicalRun int

	// Observability (nil obs = disabled): the current phase span — one per
	// generation, one for the hill climb — and its per-phase tallies.
	obs        *obs.Span
	phase      *obs.Span
	phaseEvals int
	phaseHits  int
	phaseLat   []float64 // fresh-evaluation latencies (ms) this phase
}

type scored struct {
	genome *Genome
	eval   Evaluation
}

// llcPool is the llc space genes draw from, in the catalog's order.
var llcPool = lir.LlcCatalog()

// optPool is the opt catalog minus Options.ExcludePasses, in catalog order.
func optPool(opts Options) []lir.CatalogEntry {
	pool := lir.OptCatalog()
	if len(opts.ExcludePasses) == 0 {
		return pool
	}
	drop := map[string]bool{}
	for _, n := range opts.ExcludePasses {
		drop[n] = true
	}
	out := pool[:0]
	for _, e := range pool {
		if !drop[e.Spec.Name] {
			out = append(out, e)
		}
	}
	return out
}

// better implements the fitness order: correct beats failed; among correct
// genomes, significantly faster wins, near-ties go to the smaller binary.
func better(a, b Evaluation) bool {
	if a.Outcome.Failed() != b.Outcome.Failed() {
		return !a.Outcome.Failed()
	}
	if a.Outcome.Failed() {
		return false
	}
	if stats.SignificantlyFaster(a.TimesMs, b.TimesMs, 0.05) {
		return true
	}
	if stats.SignificantlyFaster(b.TimesMs, a.TimesMs, 0.05) {
		return false
	}
	if a.SizeBytes != b.SizeBytes {
		return a.SizeBytes < b.SizeBytes
	}
	return a.MeanMs < b.MeanMs
}

func (s *searcher) run() *Result {
	s.gen = 0
	s.beginPhase("ga.generation", obs.A("gen", 0))
	pop := s.firstGeneration()
	best := s.bestOf(pop)
	s.endPhase(best)
	stall := 0
	halt := "generation budget"

	for s.gen = 1; s.gen < s.opts.Generations; s.gen++ {
		if s.identicalRun >= maxIdentical {
			halt = "identical-binaries limit"
			break
		}
		s.beginPhase("ga.generation", obs.A("gen", s.gen))
		pop = s.nextGeneration(pop)
		genBest := s.bestOf(pop)
		improved := better(genBest.eval, best.eval)
		if improved {
			best = genBest
			stall = 0
		} else {
			stall++
		}
		s.endPhase(best)
		if !improved && stall >= stallGenerations {
			halt = "no improvement"
			break
		}
	}

	// Final hill climb (§3.6).
	s.beginPhase("ga.hillclimb")
	best = s.hillClimb(best)
	s.endPhase(best)
	return &Result{Best: best.genome, BestEval: best.eval, Trace: s.trace, Halt: halt,
		Stats: s.stats}
}

// beginPhase opens the observation span covering the next batch of
// evaluations (one generation, or the hill climb) and resets its tallies.
// A no-op without an observation scope.
func (s *searcher) beginPhase(name string, attrs ...obs.Attr) {
	if s.obs == nil {
		return
	}
	s.phase = s.obs.Start(name, attrs...)
	s.phaseEvals, s.phaseHits, s.phaseLat = 0, 0, s.phaseLat[:0]
}

// endPhase closes the current phase span with the phase's evaluation counts,
// latency quantiles, and the best-so-far fitness.
func (s *searcher) endPhase(best scored) {
	if s.phase == nil {
		return
	}
	speedup := 0.0
	if s.opts.BaselineAndroidMs > 0 && best.eval.MeanMs > 0 {
		speedup = s.opts.BaselineAndroidMs / best.eval.MeanMs
	}
	s.phase.End(
		obs.A("evals", s.phaseEvals),
		obs.A("cache_hits", s.phaseHits),
		obs.A("best_ms", best.eval.MeanMs),
		obs.A("best_speedup", speedup),
		obs.A("eval_p50_ms", obs.NearestRank(s.phaseLat, 0.50)),
		obs.A("eval_p99_ms", obs.NearestRank(s.phaseLat, 0.99)),
	)
	s.phase = nil
}

func (s *searcher) bestOf(pop []scored) scored {
	b := pop[0]
	for _, p := range pop[1:] {
		if better(p.eval, b.eval) {
			b = p
		}
	}
	return b
}

// firstGeneration is random, with redundant-pass removal and up-to-N
// replacement of genomes worse than both baselines (§4). The whole
// generation is drawn serially, measured as one batch, and then refined in
// up to gen1Retries replacement rounds: every random genome still worse
// than both baselines is redrawn (in index order) and the replacements are
// measured as the next batch.
func (s *searcher) firstGeneration() []scored {
	s.gen = 0
	genomes := make([]*Genome, 0, s.opts.Population)
	presets := 0
	if seedPresets {
		for _, preset := range []string{"O1", "O2", "O3"} {
			if len(genomes) >= s.opts.Population-1 {
				break
			}
			cfg, _ := lir.Preset(preset)
			genomes = append(genomes, GenomeFromConfig(cfg))
			presets++
		}
	}
	for len(genomes) < s.opts.Population {
		g := s.randomGenome()
		dedupeAdjacent(g)
		genomes = append(genomes, g)
	}
	evs := s.measureBatch(genomes)

	for try := 0; try < gen1Retries; try++ {
		var redo []int
		for i := presets; i < len(genomes); i++ {
			if s.worseThanBaselines(evs[i]) {
				redo = append(redo, i)
			}
		}
		if len(redo) == 0 {
			break
		}
		repl := make([]*Genome, len(redo))
		for j, i := range redo {
			g := s.randomGenome()
			dedupeAdjacent(g)
			repl[j] = g
			genomes[i] = g
		}
		for j, ev := range s.measureBatch(repl) {
			evs[redo[j]] = ev
		}
	}

	pop := make([]scored, len(genomes))
	for i := range genomes {
		pop[i] = scored{genomes[i], evs[i]}
	}
	return pop
}

func (s *searcher) worseThanBaselines(ev Evaluation) bool {
	if ev.Outcome.Failed() {
		return true
	}
	if s.opts.BaselineAndroidMs == 0 && s.opts.BaselineO3Ms == 0 {
		return false
	}
	return ev.MeanMs > s.opts.BaselineAndroidMs && ev.MeanMs > s.opts.BaselineO3Ms
}

func (s *searcher) randomGenome() *Genome {
	n := minGenomeLen + s.rng.Intn(maxGenomeLen-minGenomeLen+1)
	g := &Genome{}
	for i := 0; i < n; i++ {
		g.Genes = append(g.Genes, s.randomGene())
	}
	return g
}

func (s *searcher) randomGene() Gene {
	if s.rng.Float64() < 0.2 {
		o := llcPool[s.rng.Intn(len(llcPool))]
		v := o.Min + s.rng.Intn(o.Max-o.Min+1)
		return Gene{Kind: GeneLlc, LlcName: o.Name, LlcValue: v}
	}
	e := s.pool[s.rng.Intn(len(s.pool))]
	spec := lir.PassSpec{Name: e.Spec.Name}
	if len(e.Spec.Params) > 0 {
		spec.Params = map[string]int{}
		//detlint:allow map-range — keyed copy of a param map; insertion order irrelevant
		for k, v := range e.Spec.Params {
			spec.Params[k] = v
		}
	}
	return Gene{Kind: GenePass, Pass: spec}
}

// dedupeAdjacent removes immediately repeated genes (the §4 gen-1
// redundant-pass removal).
func dedupeAdjacent(g *Genome) {
	if len(g.Genes) < 2 {
		return
	}
	out := g.Genes[:1]
	for _, gn := range g.Genes[1:] {
		if gn.String() != out[len(out)-1].String() {
			out = append(out, gn)
		}
	}
	g.Genes = out
}

// nextGeneration selects mates through the three pipelines, crosses them
// over, and mutates the offspring. Every selection/crossover/mutation draw
// happens serially first; the resulting brood is then measured as one batch
// (the identical-binaries stall is checked at generation granularity, in
// run).
func (s *searcher) nextGeneration(pop []scored) []scored {
	sorted := append([]scored(nil), pop...)
	sort.SliceStable(sorted, func(i, j int) bool { return better(sorted[i].eval, sorted[j].eval) })
	elite := sorted[:max(1, len(sorted)/10)]

	next := make([]scored, 0, s.opts.Population)
	// Elitism: the best genomes survive unchanged (no re-evaluation).
	for _, e := range elite {
		if len(next) >= s.opts.Population {
			break
		}
		next = append(next, e)
	}
	var children []*Genome
	for len(next)+len(children) < s.opts.Population {
		var a, b *Genome
		switch s.rng.Intn(3) { // the three mate-selection pipelines
		case 0: // elites only
			a = elite[s.rng.Intn(len(elite))].genome
			b = elite[s.rng.Intn(len(elite))].genome
		case 1: // fittest only (top half)
			half := sorted[:max(2, len(sorted)/2)]
			a = half[s.rng.Intn(len(half))].genome
			b = half[s.rng.Intn(len(half))].genome
		default: // tournament selection (7 candidates, p = 0.9)
			a = s.tournament(sorted)
			b = s.tournament(sorted)
		}
		child := s.crossover(a, b)
		if s.rng.Float64() < mutateGenomeProb {
			s.mutate(child)
		}
		dedupeAdjacent(child)
		children = append(children, child)
	}
	for i, ev := range s.measureBatch(children) {
		next = append(next, scored{children[i], ev})
	}
	return next
}

func (s *searcher) tournament(sorted []scored) *Genome {
	k := min(tournamentSize, len(sorted))
	picks := make([]int, k)
	for i := range picks {
		picks[i] = s.rng.Intn(len(sorted))
	}
	sort.Ints(picks) // sorted[] is fitness-ordered: lower index = fitter
	for _, p := range picks {
		if s.rng.Float64() < tournamentProb {
			return sorted[p].genome
		}
	}
	return sorted[picks[len(picks)-1]].genome
}

// crossover is single-point with the resulting length clamped to the
// minimum (§3.6).
func (s *searcher) crossover(a, b *Genome) *Genome {
	if len(a.Genes) == 0 {
		return b.withGenes()
	}
	if len(b.Genes) == 0 {
		return a.withGenes()
	}
	for try := 0; try < 8; try++ {
		ca := s.rng.Intn(len(a.Genes) + 1)
		cb := s.rng.Intn(len(b.Genes) + 1)
		n := ca + (len(b.Genes) - cb)
		if n < minGenomeLen {
			continue
		}
		child := &Genome{}
		child.Genes = append(child.Genes, a.Genes[:ca]...)
		child.Genes = append(child.Genes, b.Genes[cb:]...)
		if len(child.Genes) > maxGenomeLen*2 {
			child.Genes = child.Genes[:maxGenomeLen*2]
		}
		return child
	}
	return a.withGenes()
}

// mutate applies the per-gene operators: drop a gene, tweak a parameter, or
// insert a new pass (§3.6's three mutation operators).
func (s *searcher) mutate(g *Genome) {
	var out []Gene
	for _, gn := range g.Genes {
		if s.rng.Float64() >= mutateGeneProb {
			out = append(out, gn)
			continue
		}
		switch s.rng.Intn(3) {
		case 0: // disable: drop the gene
			if len(g.Genes) > minGenomeLen {
				continue
			}
			out = append(out, gn)
		case 1: // modify a parameter
			out = append(out, s.tweak(gn))
		default: // introduce a new pass after this one
			out = append(out, gn, s.randomGene())
		}
	}
	if len(out) < minGenomeLen {
		for len(out) < minGenomeLen {
			out = append(out, s.randomGene())
		}
	}
	g.Genes = out
}

// tweak returns gn with one parameter redrawn. It writes a copy of gn's
// parameter map, never the map itself, which other genomes may share.
func (s *searcher) tweak(gn Gene) Gene {
	if gn.Kind == GeneLlc {
		if o, ok := lir.LlcByName(gn.LlcName); ok {
			gn.LlcValue = o.Min + s.rng.Intn(o.Max-o.Min+1)
		}
		return gn
	}
	info, ok := lir.PassByName(gn.Pass.Name)
	if !ok || len(info.Params) == 0 {
		return gn
	}
	ps := info.Params[s.rng.Intn(len(info.Params))]
	params := maps.Clone(gn.Pass.Params)
	if params == nil {
		params = map[string]int{}
	}
	params[ps.Name] = ps.Min + s.rng.Intn(ps.Max-ps.Min+1)
	gn.Pass.Params = params
	return gn
}

// hillClimb explores the best genome's single-gene neighborhood until the
// budget runs out or no neighbor improves (§3.6's final step).
func (s *searcher) hillClimb(best scored) scored {
	budget := s.opts.HillClimbBudget
	improved := true
	for improved && budget > 0 {
		improved = false
		for i := 0; i < len(best.genome.Genes) && budget > 0; i++ {
			// Neighbor 1: drop gene i.
			if len(best.genome.Genes) > minGenomeLen {
				n := best.genome.withGenes()
				n.Genes = append(n.Genes[:i], n.Genes[i+1:]...)
				ev := s.measure(n)
				budget--
				if better(ev, best.eval) {
					best = scored{n, ev}
					improved = true
					continue
				}
			}
			if budget <= 0 {
				break
			}
			// Neighbor 2: tweak gene i's parameters.
			n := best.genome.withGenes()
			n.Genes[i] = s.tweak(n.Genes[i])
			ev := s.measure(n)
			budget--
			if better(ev, best.eval) {
				best = scored{n, ev}
				improved = true
			}
		}
	}
	return best
}
