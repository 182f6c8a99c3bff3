package replayopt

// The differential matrix: the repo's one check of its own passes against
// the interpreter, the way the search checks each replay against the §3.4
// verification map. One body runs three axes:
//
//   - programs: the evaluation apps, WitnessFilter and ScratchFilter, and
//     progen's random terminating programs;
//   - pipelines: the O0–O3 presets; each registered pass alone on O0; each
//     preset with each range or alias pass family appended; seeded random
//     safe genomes with random lowering bits (and FuzzPipelines beyond
//     them);
//   - tiers: the interpreter is the oracle; aot (whole program, and
//     mixed-mode with every odd method ID left interpreted) and lir are
//     checked against it, every lir compile under the strict rejecting
//     translation validator (which runs lir.VerifyIR after every pass).
//
// A failure names its kind, after the divergence classes of source-free
// miscompile detection: verifier (the IR broke), rejected (tv proved a
// miscompile), wrong-output or runtime-crash. For a lir failure it names
// the pass application rtrace.Bisect pins; for a generated program it
// prints the source shrunk by ShrinkLines. The report is the test message;
// nothing is written to disk. The deliberately miscompiling tvbreak pass,
// planted into real pipelines, drills that whole path.
//
// The family rows run as TestRangePassDifferential and
// TestAliasPassDifferential, the other rows as TestDifferentialMatrix, and
// FuzzPipelines extends the random row under go test -fuzz.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"replayopt/internal/aot"
	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/lir/rtrace"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/obs"
	"replayopt/internal/progen"
	"replayopt/internal/rt"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

// Failure kinds.
const (
	kindVerifier = "verifier"
	kindRejected = "rejected"
	kindWrong    = "wrong-output"
	kindCrash    = "runtime-crash"
)

// Cycle limits for every execution of a subject, interpreted or compiled:
// the slowest app interprets in under 30M cycles and generated programs in
// under 1.3M, and a shrink candidate that no longer terminates must fail
// fast.
const (
	appCycles       = 100_000_000
	generatedCycles = 10_000_000
)

// subject is one program of the matrix, with the interpreter's answer.
type subject struct {
	app   *core.App
	src   string // minic source of a generated program; "" for an app
	limit uint64 // cycles per execution
	want  uint64
	// agreed holds the hashes of the images that already ran and agreed
	// with the interpreter; execution is deterministic, so they are not
	// run again.
	agreed map[uint64]bool
}

// newSubject interprets app; an error means it has no ground truth.
func newSubject(app *core.App, src string, limit uint64) (*subject, error) {
	proc := rt.NewProcess(app.Prog, app.RTConfig)
	e := interp.NewEnv(proc)
	e.Natives = interp.BindNatives(app.Prog, natives(app))
	e.MaxCycles = limit
	want, err := e.Run()
	if err != nil {
		return nil, fmt.Errorf("interpreting %s: %w", app.Name, err)
	}
	return &subject{app: app, src: src, limit: limit, want: want, agreed: map[uint64]bool{}}, nil
}

func natives(app *core.App) *interp.NativeState {
	ns := interp.NewNativeState(app.NativeSeed)
	ns.Inputs = append([]int64(nil), app.Inputs...)
	return ns
}

// generated compiles and interprets a progen program; ok is false when the
// source does not compile or has no ground truth (it traps or runs away).
func generated(name, src string) (s *subject, ok bool) {
	prog, err := minic.CompileSource("gen", src)
	if err != nil {
		return nil, false
	}
	s, err = newSubject(&core.App{Name: name, Prog: prog}, src, generatedCycles)
	return s, err == nil
}

// progenSubject generates the program of one seed.
func progenSubject(t *testing.T, seed int64) *subject {
	t.Helper()
	src := progen.Generate(rand.New(rand.NewSource(seed)), progen.Default())
	s, ok := generated(fmt.Sprintf("progen-%d", seed), src)
	if !ok {
		t.Fatalf("seed %d: generated program does not compile or has no ground truth\n%s", seed, src)
	}
	return s
}

func appSubject(t *testing.T, spec apps.Spec) *subject {
	t.Helper()
	app, err := apps.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSubject(app, "", appCycles)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tier names the compiler of a cell.
type tier int

const (
	tierLIR tier = iota
	tierAOT
	tierMixed // aot for even method IDs, the interpreter for the rest
)

// cell is one pipeline of the matrix.
type cell struct {
	name   string
	tier   tier
	cfg    lir.Config
	static *sa.Result
	// stops: the compile may stop by design (vectorize's crash on calls,
	// the growth cap, a lowering failure), which skips the cell. Elsewhere
	// any compile error fails it, an unregistered pass included.
	stops bool
}

// failure is one divergence from the interpreter.
type failure struct {
	kind, detail string
	pinned       string // the pass application Bisect pins (lir only)
	source       string // the shrunk reproducer (generated programs only)
}

func (f *failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", f.kind, f.detail)
	if f.pinned != "" {
		fmt.Fprintf(&b, "\n  pinned: %s", f.pinned)
	}
	if f.source != "" {
		fmt.Fprintf(&b, "\n  reproducer (%d lines):\n    %s", strings.Count(f.source, "\n")+1,
			strings.ReplaceAll(f.source, "\n", "\n    "))
	}
	return b.String()
}

// compile builds c's image; for lir, enabled (nil: all) admits pass
// applications by trace seq.
func (s *subject) compile(c cell, enabled func(seq int) bool) (*machine.Program, error) {
	switch c.tier {
	case tierAOT, tierMixed:
		code, err := aot.Compile(s.app.Prog)
		if err != nil || c.tier == tierAOT {
			return code, err
		}
		half := machine.NewProgram()
		for id, fn := range code.Fns {
			if id%2 == 0 {
				half.Fns[id] = fn
			}
		}
		return half, nil
	}
	cfg := c.cfg
	cfg.Check = tv.NewChecker(tv.Options{Reject: true, Strict: true})
	if enabled != nil {
		code, _, err := rtrace.CompileMasked(s.app.Prog, nil, cfg, nil, c.static, enabled)
		return code, err
	}
	return lir.Compile(s.app.Prog, nil, cfg, nil, c.static)
}

// check runs c on s and compares against the interpreter. It returns the
// failure (nil when the image agrees or the compile stopped by design), or
// an error for a compile that should not have stopped.
func (s *subject) check(c cell, enabled func(seq int) bool) (*failure, error) {
	code, err := s.compile(c, enabled)
	var rej *tv.RejectError
	var crash *lir.CrashError
	var timeout *lir.TimeoutError
	var lower *machine.CompileError
	switch {
	case errors.As(err, &rej):
		// The strict checker prefixes the reasons lir.VerifyIR gives.
		if strings.HasPrefix(rej.Reason, "strict: ") {
			return &failure{kind: kindVerifier, detail: rej.Error()}, nil
		}
		return &failure{kind: kindRejected, detail: rej.Error()}, nil
	case err != nil && c.stops && (errors.As(err, &crash) || errors.As(err, &timeout) || errors.As(err, &lower)):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("compile: %w", err)
	}
	h := machine.HashProgram(code)
	if s.agreed[h] {
		return nil, nil
	}
	proc := rt.NewProcess(s.app.Prog, s.app.RTConfig)
	x := machine.NewExec(proc, code)
	x.Fallback.Natives = interp.BindNatives(s.app.Prog, natives(s.app))
	x.MaxCycles = s.limit
	got, err := x.Call(s.app.Prog.Entry, nil)
	if err != nil {
		return &failure{kind: kindCrash, detail: err.Error()}, nil
	}
	if got != s.want {
		return &failure{kind: kindWrong, detail: fmt.Sprintf("interpreter %d, compiled %d", int64(s.want), int64(got))}, nil
	}
	s.agreed[h] = true
	return nil, nil
}

// explain completes a failure: a generated program shrinks to a minimal
// source that fails c the same way, whose failure then stands for it, and
// a lir failure is pinned to one pass application.
func (s *subject) explain(c cell, f *failure) {
	if s.src != "" {
		fails := func(src string) (*subject, *failure) {
			g, ok := generated(s.app.Name, src)
			if !ok {
				return nil, nil
			}
			h, err := g.check(c, nil)
			if err != nil || h == nil || h.kind != f.kind {
				return nil, nil
			}
			return g, h
		}
		f.source = ShrinkLines(s.src, func(src string) bool {
			_, h := fails(src)
			return h != nil
		})
		if g, h := fails(f.source); h != nil {
			s, f.detail = g, h.detail
		}
	}
	if c.tier != tierLIR {
		return
	}
	tr, res, err := s.pin(c, f.kind)
	if err != nil {
		f.pinned = err.Error()
		return
	}
	e := tr.Entries[res.BadSeq]
	f.pinned = fmt.Sprintf("seq %d of %d, pass %s on %s (%d bisection steps)",
		res.BadSeq, len(tr.Entries), e.Pass, e.Fn, res.Steps)
}

// pin records c's rewrite trace, exactly as replayopt -rtrace would for a
// winner, and bisects it for the first application whose inclusion makes the
// compile fail as kind.
func (s *subject) pin(c cell, kind string) (*rtrace.Trace, *rtrace.BisectResult, error) {
	var buf bytes.Buffer
	rec := rtrace.NewRecorder(obs.NewJSONLWriter(&buf), rtrace.RecorderOptions{})
	if err := rec.WriteHeader(s.app.Name, 0, c.cfg, nil); err != nil {
		return nil, nil, err
	}
	cfg := c.cfg
	cfg.Trace = rec
	if code, err := lir.Compile(s.app.Prog, nil, cfg, nil, c.static); err == nil {
		if err := rec.Finish(machine.HashProgram(code)); err != nil {
			return nil, nil, err
		}
	}
	tr, err := rtrace.ReadTrace(&buf)
	if err != nil {
		return nil, nil, err
	}
	res, err := rtrace.Bisect(len(tr.Entries), func(enabled func(seq int) bool) bool {
		f, err := s.check(c, enabled)
		return err == nil && f != nil && f.kind == kind
	})
	return tr, res, err
}

// run checks every cell on s and reports each divergence in full.
func (s *subject) run(t *testing.T, cells []cell) {
	for _, c := range cells {
		f, err := s.check(c, nil)
		if err != nil {
			t.Errorf("%s %s: %v", s.app.Name, c.name, err)
			continue
		}
		if f != nil {
			s.explain(c, f)
			t.Errorf("%s %s: %s", s.app.Name, c.name, f)
		}
	}
}

// presetCells are O0–O3 on lir plus aot, whole and mixed-mode.
func presetCells() []cell {
	cells := []cell{{name: "aot", tier: tierAOT}, {name: "aot-mixed", tier: tierMixed}}
	for _, p := range []string{"O0", "O1", "O2", "O3"} {
		cfg, _ := lir.Preset(p)
		cells = append(cells, cell{name: p, cfg: cfg})
	}
	return cells
}

// singlePassCells apply each registered pass alone on O0.
func singlePassCells() []cell {
	var cells []cell
	for _, name := range lir.PassNames() {
		cfg := lir.O0()
		cfg.Passes = []lir.PassSpec{{Name: name}}
		cells = append(cells, cell{name: "O0+" + name, cfg: cfg, stops: true})
	}
	return cells
}

// randomCells draws n safe genomes, each with random lowering bits and
// register count, from one pipeline seed.
func randomCells(seed int64, n int) []cell {
	rng := rand.New(rand.NewSource(seed))
	safe := lir.SafeOptCatalog()
	cells := make([]cell, n)
	for i := range cells {
		cfg := lir.O0()
		cfg.Lower.FusedAddressing = rng.Intn(2) == 0
		cfg.Lower.Machine.FuseLiterals = rng.Intn(2) == 0
		cfg.Lower.Machine.FuseMaddInt = rng.Intn(2) == 0
		cfg.Lower.Machine.Schedule = rng.Intn(2) == 0
		cfg.Lower.Machine.NumRegs = 10 + rng.Intn(17)
		names := make([]string, rng.Intn(12)+3)
		for j := range names {
			e := safe[rng.Intn(len(safe))]
			cfg.Passes = append(cfg.Passes, e.Spec)
			names[j] = e.Spec.Name
		}
		cells[i] = cell{
			name:  fmt.Sprintf("random(%d#%d)[%s] lower=%+v", seed, i, strings.Join(names, " "), cfg.Lower),
			cfg:   cfg,
			stops: true,
		}
	}
	return cells
}

// passFamily is a set of passes that consume one analysis's facts.
type passFamily struct {
	// passes are the variants' building blocks: each alone, then all.
	passes []lir.PassSpec
	// attach computes the facts the passes consume.
	attach func(*sa.Result)
	// specs are the apps under test; short names the -short subset.
	specs []apps.Spec
	short map[string]bool
}

var (
	rangeFamily = passFamily{
		passes: []lir.PassSpec{{Name: "rangecheckelim"}, {Name: "rangebranch"}, {Name: "rangestrength"}},
		attach: vra.Attach,
		specs:  append(apps.All(), apps.WitnessSpec()),
		// Kernel, interactive, and diagnostic representatives.
		short: map[string]bool{"SOR": true, "MaterialLife": true, "WitnessFilter": true},
	}
	aliasFamily = passFamily{
		// licm only consumes the alias facts with load hoisting enabled.
		passes: []lir.PassSpec{
			{Name: "storeforward"},
			{Name: "dse"},
			{Name: "licm", Params: map[string]int{"loads": 1}},
			{Name: "stackalloc"},
		},
		attach: pts.Attach,
		specs:  append(apps.All(), apps.WitnessSpec(), apps.ScratchSpec()),
		// Kernel, interactive, and diagnostic representatives; ScratchFilter
		// is the app engineered to make stackalloc fire.
		short: map[string]bool{"Sparse matmult": true, "MaterialLife": true, "ScratchFilter": true},
	}
)

// cells append each of fam's passes alone, then all of them, to each preset
// (O1 only under -short), over the facts the optimizer's prepare stage
// attaches for them.
func (fam passFamily) cells(s *subject) []cell {
	static := sa.Analyze(s.app.Prog)
	fam.attach(static)
	variants := make([][]lir.PassSpec, 0, len(fam.passes)+1)
	for _, p := range fam.passes {
		variants = append(variants, []lir.PassSpec{p})
	}
	variants = append(variants, fam.passes)
	presets := []string{"O1", "O2", "O3"}
	if testing.Short() {
		presets = presets[:1]
	}
	var cells []cell
	for _, p := range presets {
		for _, passes := range variants {
			cfg, _ := lir.Preset(p)
			names := make([]string, len(passes))
			for i, ps := range passes {
				cfg.Passes = append(cfg.Passes, ps)
				names[i] = ps.Name
			}
			cells = append(cells, cell{name: fmt.Sprintf("%s+%v", p, names), cfg: cfg, static: static})
		}
	}
	return cells
}

// The fuzzer-pool tests: the single-pass row drills lir.PassNames(), and the
// random row and FuzzPipelines draw genomes from lir.SafeOptCatalog(), which
// is built from the registry. A rename that silently drops one of a family's
// passes from the registry, or marks it unsafe, would drop it from both.
func TestRangePassesInFuzzerPool(t *testing.T) { testInFuzzerPool(t, rangeFamily) }

func TestAliasPassesInFuzzerPool(t *testing.T) { testInFuzzerPool(t, aliasFamily) }

func testInFuzzerPool(t *testing.T, fam passFamily) {
	registered, safe := map[string]bool{}, map[string]bool{}
	for _, n := range lir.PassNames() {
		registered[n] = true
	}
	for _, e := range lir.SafeOptCatalog() {
		safe[e.Spec.Name] = true
	}
	for _, p := range fam.passes {
		if !registered[p.Name] {
			t.Errorf("pass %s not in lir.PassNames(); the single-pass row would skip it", p.Name)
		}
		if !safe[p.Name] {
			t.Errorf("pass %s not in lir.SafeOptCatalog(); the random row and FuzzPipelines would skip it", p.Name)
		}
	}
}

// The range and alias family rows keep their own entry points and per-app
// subtests, so their history stays comparable.
func TestRangePassDifferential(t *testing.T) { testFamily(t, rangeFamily) }

func TestAliasPassDifferential(t *testing.T) { testFamily(t, aliasFamily) }

func testFamily(t *testing.T, fam passFamily) {
	for _, spec := range fam.specs {
		if testing.Short() && !fam.short[spec.Name] {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			s := appSubject(t, spec)
			s.run(t, fam.cells(s))
		})
	}
}

// matrixApps are the evaluation apps plus the two diagnostic ones; short
// names the -short subset.
var (
	matrixApps  = append(apps.All(), apps.WitnessSpec(), apps.ScratchSpec())
	matrixShort = map[string]bool{"SOR": true, "MaterialLife": true, "ScratchFilter": true}
)

// TestDifferentialMatrix runs the tier, single-pass and random-pipeline rows
// and the tvbreak drill. Each row draws its generated programs from its own
// arithmetic progression of seeds, kept from the loops the matrix replaced.
func TestDifferentialMatrix(t *testing.T) {
	t.Run("tiers", func(t *testing.T) {
		for _, spec := range matrixApps {
			if testing.Short() && !matrixShort[spec.Name] {
				continue
			}
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				appSubject(t, spec).run(t, presetCells())
			})
		}
		progenRow(t, 25, func(i int64) int64 { return i*131 + 7 }, func(int64) []cell { return presetCells() })
	})
	t.Run("single-pass", func(t *testing.T) {
		progenRow(t, 3, passSeed, func(int64) []cell { return singlePassCells() })
	})
	t.Run("random", func(t *testing.T) {
		progenRow(t, 15, func(i int64) int64 { return i*977 + 3 }, func(seed int64) []cell { return randomCells(seed, 4) })
	})
	t.Run("edge", func(t *testing.T) {
		s, ok := generated("edge", edgeSrc)
		if !ok {
			t.Fatal("the edge-value program does not compile or has no ground truth")
		}
		if s.want != 0 {
			t.Fatalf("interpreter: %d edge-value checks failed", s.want)
		}
		s.run(t, append(presetCells(), singlePassCells()...))
	})
	t.Run("tvbreak", testMiscompileDrill)
}

// edgeSrc pins internal/opsem's edge values through every tier: each check
// runs once on literals, which the aot and lir folders (and tv) evaluate,
// and once on the same values passed through i or f, which no compiler can
// see through (zi and one come from IO.readInput, which returns -1 with no
// input pending). The program returns the number of failed checks.
const edgeSrc = `
global int bad;
global int zi;
global float one;

func ck(int got, int want) { if (got != want) { bad = bad + 1; } }
func i(int x) int { return x + zi; }
func f(float x) float { return x * one; }
func cmp(float a, float b) int {
	if (a > b) { return 1; }
	if (a == b) { return 0; }
	return -1;
}

func main() int {
	zi = read_input() + 1;
	one = itof(zi + 1);
	int mn = -9223372036854775807 - 1;
	int mx = 9223372036854775807;
	float nan = 0.0 / 0.0;
	float inf = 1.0 / 0.0;
	float t63 = 9223372036854775808.0;

	ck(1 << 64, 1); ck(i(1) << i(64), 1);
	ck(1 << -1, mn); ck(i(1) << i(-1), mn);
	ck(-8 >> 130, -2); ck(i(-8) >> i(130), -2);
	ck(5 << mx, mn); ck(i(5) << i(mx), mn);
	ck(5 >> mn, 5); ck(i(5) >> i(mn), 5);
	ck(mn >> 63, -1); ck(i(mn) >> i(63), -1);

	ck(mn / -1, mn); ck(i(mn) / i(-1), mn);
	ck(mn % -1, 0); ck(i(mn) % i(-1), 0);
	ck(-7 / 2, -3); ck(i(-7) / i(2), -3);
	ck(-7 % 2, -1); ck(i(-7) % i(2), -1);
	ck(mx / mn, 0); ck(i(mx) / i(mn), 0);
	ck(mx % mn, mx); ck(i(mx) % i(mn), mx);

	ck(ftoi(nan), 0); ck(ftoi(f(nan)), 0);
	ck(ftoi(inf), mx); ck(ftoi(f(inf)), mx);
	ck(ftoi(-inf), mn); ck(ftoi(f(-inf)), mn);
	ck(ftoi(t63), mx); ck(ftoi(f(t63)), mx);
	ck(ftoi(-t63), mn); ck(ftoi(f(-t63)), mn);
	ck(ftoi(itof(mx)), mx); ck(ftoi(f(itof(i(mx)))), mx);
	ck(ftoi(1e300), mx); ck(ftoi(f(1e300)), mx);
	ck(ftoi(-0.0), 0); ck(ftoi(f(-0.0)), 0);
	ck(ftoi(-2.99), -2); ck(ftoi(f(-2.99)), -2);
	ck(ftoi(9223372036854774784.0), 9223372036854774784); ck(ftoi(f(9223372036854774784.0)), 9223372036854774784);

	ck(cmp(nan, 0.0), -1); ck(cmp(f(nan), f(0.0)), -1);
	ck(cmp(0.0, nan), -1); ck(cmp(f(0.0), f(nan)), -1);
	ck(cmp(0.0, -0.0), 0); ck(cmp(f(0.0), f(-0.0)), 0);
	ck(cmp(inf, inf), 0); ck(cmp(f(inf), f(inf)), 0);
	ck(cmp(-inf, t63), -1); ck(cmp(f(-inf), f(t63)), -1);

	ck(ftoi(sqrt(-1.0)), 0); ck(ftoi(sqrt(f(-1.0))), 0);
	ck(ftoi(log(0.0)), mn); ck(ftoi(log(f(0.0))), mn);
	ck(ftoi(exp(1000.0)), mx); ck(ftoi(exp(f(1000.0))), mx);
	ck(ftoi(pow(2.0, 10.0)), 1024); ck(ftoi(pow(f(2.0), f(10.0))), 1024);
	ck(ftoi(floor(-0.5)), -1); ck(ftoi(floor(f(-0.5))), -1);
	ck(ftoi(cos(0.0) + sin(0.0)), 1); ck(ftoi(cos(f(0.0)) + sin(f(0.0))), 1);
	ck(ftoi(absf(-inf)), mx); ck(ftoi(absf(f(-inf))), mx);
	ck(absi(mn), mn); ck(absi(i(mn)), mn);
	ck(mini(mn, mx), mn); ck(mini(i(mn), i(mx)), mn);
	ck(maxi(mn, mx), mx); ck(maxi(i(mn), i(mx)), mx);
	return bad;
}
`

// progenRow checks the cells of each of n generated programs, the i-th from
// seedOf(i), in parallel subtests.
func progenRow(t *testing.T, n int64, seedOf func(i int64) int64, cells func(seed int64) []cell) {
	for i := int64(0); i < n; i++ {
		seed := seedOf(i)
		t.Run(fmt.Sprintf("progen-%d", seed), func(t *testing.T) {
			t.Parallel()
			progenSubject(t, seed).run(t, cells(seed))
		})
	}
}

// passSeed is the single-pass row's seed progression, which the tvbreak
// drill shares.
func passSeed(i int64) int64 { return i*1021 + 17 }

// testMiscompileDrill plants tvbreak into real pipelines: each row must fail
// as rejected or wrong-output, and bisection must pin tvbreak's first fired
// application within ⌈log₂ n⌉ steps; a generated program's reproducer must
// shrink to at most 60 lines.
func testMiscompileDrill(t *testing.T) {
	t.Cleanup(lir.RegisterForTesting(tv.MiscompilePass()))
	spec, _ := apps.ByName("MaterialLife")
	for _, base := range []string{"O2", "catalog"} {
		t.Run("MaterialLife/"+base, func(t *testing.T) {
			t.Parallel()
			s := appSubject(t, spec)
			c := cell{name: base + "+tvbreak@4", cfg: withPassAt(basePipeline(base), 4, tv.MiscompilePassName)}
			f, err := s.check(c, nil)
			if err != nil || f == nil || (f.kind != kindRejected && f.kind != kindWrong) {
				t.Fatalf("%s: got failure %v, error %v; want rejected or wrong-output", c.name, f, err)
			}
			tr, res, err := s.pin(c, f.kind)
			if err != nil {
				t.Fatal(err)
			}
			first := -1
			for _, e := range tr.Entries {
				if e.Pass == tv.MiscompilePassName && e.Fired {
					first = e.Seq
					break
				}
			}
			if first < 0 {
				t.Fatalf("%s: tvbreak never fired in %d applications", c.name, len(tr.Entries))
			}
			n := len(tr.Entries)
			if res.BadSeq != first {
				t.Errorf("%s: bisection pinned seq %d (%s), tvbreak first fired at seq %d",
					c.name, res.BadSeq, tr.Entries[res.BadSeq].Pass, first)
			}
			if budget := int(math.Ceil(math.Log2(float64(n)))); res.Steps > budget {
				t.Errorf("%s: %d bisection steps over %d applications, budget %d", c.name, res.Steps, n, budget)
			}
		})
	}
	t.Run("progen", func(t *testing.T) {
		t.Parallel()
		cfg := lir.O0()
		cfg.Passes = []lir.PassSpec{{Name: tv.MiscompilePassName}}
		c := cell{name: "O0+tvbreak", cfg: cfg}
		for i := int64(0); i < 4; i++ {
			s := progenSubject(t, passSeed(i))
			f, err := s.check(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			if f == nil {
				continue
			}
			if f.kind != kindRejected && f.kind != kindWrong {
				t.Fatalf("tvbreak found as %s, want rejected or wrong-output", f.kind)
			}
			s.explain(c, f)
			if lines := strings.Count(f.source, "\n") + 1; f.source == "" || lines > 60 {
				t.Fatalf("reproducer not shrunk: %d lines\n%s", lines, f)
			}
			if !strings.Contains(f.pinned, "pass "+tv.MiscompilePassName) {
				t.Fatalf("failure pinned on %q, want tvbreak", f.pinned)
			}
			return
		}
		t.Fatal("no generated program exposed tvbreak")
	})
}

// basePipeline is a preset, or "catalog": every safe catalog entry's default
// spec in catalog order, deduplicated by pass name (the catalog pads with
// repeat-position and parameter-sweep variants of the same pass), on O1's
// lowering options.
func basePipeline(name string) lir.Config {
	if cfg, ok := lir.Preset(name); ok {
		return cfg
	}
	cfg := lir.O1()
	cfg.Passes = nil
	// vectorize models a real vectorizer's not-implemented crash on loops
	// with calls; the drill pipeline must compile every app.
	seen := map[string]bool{"vectorize": true}
	for _, e := range lir.SafeOptCatalog() {
		if !seen[e.Spec.Name] {
			seen[e.Spec.Name] = true
			cfg.Passes = append(cfg.Passes, e.Spec)
		}
	}
	return cfg
}

// withPassAt inserts the named pass at position at of cfg's pipeline.
func withPassAt(cfg lir.Config, at int, name string) lir.Config {
	passes := append([]lir.PassSpec(nil), cfg.Passes[:at]...)
	passes = append(passes, lir.PassSpec{Name: name})
	cfg.Passes = append(passes, cfg.Passes[at:]...)
	return cfg
}

// FuzzPipelines checks six random safe genomes, drawn from a pipeline seed,
// on the program of a progen seed: the random row, widened by go test -fuzz.
// Its seed corpus of sixty programs is the stress set, skipped under -short;
// the fuzzer's parallelism replaces t.Parallel while fuzzing.
func FuzzPipelines(f *testing.F) {
	if !testing.Short() {
		for seed := int64(100); seed < 160; seed++ {
			f.Add(seed*31+5, seed)
		}
	}
	f.Fuzz(func(t *testing.T, progSeed, pipeSeed int64) {
		t.Parallel()
		src := progen.Generate(rand.New(rand.NewSource(progSeed)), progen.Default())
		s, ok := generated(fmt.Sprintf("progen-%d", progSeed), src)
		if !ok {
			t.Skip("no ground truth")
		}
		s.run(t, randomCells(pipeSeed, 6))
	})
}

// ShrinkLines greedily deletes source spans while reproduces keeps returning
// true: whole brace-balanced blocks first (an `if (...) {` line cannot go
// without its closing brace), then single lines. reproduces must be
// deterministic or the result is arbitrary.
func ShrinkLines(src string, reproduces func(string) bool) string {
	lines := strings.Split(src, "\n")
	// closingBrace returns the line index closing the block opened at i,
	// or -1 when line i opens no block.
	closingBrace := func(lines []string, i int) int {
		if !strings.HasSuffix(strings.TrimSpace(lines[i]), "{") {
			return -1
		}
		depth := 0
		for j := i; j < len(lines); j++ {
			depth += strings.Count(lines[j], "{") - strings.Count(lines[j], "}")
			if depth == 0 {
				return j
			}
		}
		return -1
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(lines); i++ {
			var spans [][2]int
			if j := closingBrace(lines, i); j > i {
				spans = append(spans, [2]int{i, j})
			}
			spans = append(spans, [2]int{i, i})
			for _, sp := range spans {
				cand := make([]string, 0, len(lines))
				cand = append(cand, lines[:sp[0]]...)
				cand = append(cand, lines[sp[1]+1:]...)
				if reproduces(strings.Join(cand, "\n")) {
					lines = cand
					changed = true
					i--
					break
				}
			}
		}
	}
	return strings.Join(lines, "\n")
}
