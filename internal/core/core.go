// Package core is the system's public pipeline — the paper's Fig. 6 loop.
// Given an application, it:
//
//  1. runs it online under the baseline compiler with the sampling profiler,
//  2. detects the hot region (Algorithm 1) and the Fig. 8 code breakdown,
//  3. captures the region's input state during a later online run (§3.2),
//  4. builds the verification map and type profile by interpreted replay (§3.4),
//  5. searches the LLVM-analogue optimization space with the GA, evaluating
//     every genome by replay and discarding wrong binaries (§3.6, §3.7),
//  6. installs the winner and measures whole-program speedups outside the
//     replay environment (§5.1).
package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"replayopt/internal/aot"
	"replayopt/internal/capture"
	"replayopt/internal/device"
	"replayopt/internal/dex"
	"replayopt/internal/ga"
	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/lir/rtrace"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/mem"
	"replayopt/internal/obs"
	"replayopt/internal/profile"
	"replayopt/internal/replay"
	"replayopt/internal/rt"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
	"replayopt/internal/stats"
	"replayopt/internal/verify"
)

// App is one application under optimization.
type App struct {
	Name string
	Prog *dex.Program
	// Proc config: heap sizing etc. (apps differ widely, Fig. 11).
	RTConfig rt.Config
	// Inputs is the scripted user-input stream for IO.readInput.
	Inputs []int64
	// NativeSeed seeds the app's PRNG/clock state.
	NativeSeed uint64
}

// NewProcessAndExec builds a fresh online process running app under code.
func (a *App) NewProcessAndExec(code *machine.Program) (*rt.Process, *machine.Exec) {
	proc := rt.NewProcess(a.Prog, a.RTConfig)
	x := machine.NewExec(proc, code)
	ns := interp.NewNativeState(a.NativeSeed)
	ns.Inputs = append([]int64(nil), a.Inputs...)
	x.Fallback.Natives = interp.BindNatives(a.Prog, ns)
	return proc, x
}

// Options configure a pipeline run.
type Options struct {
	GA ga.Options
	// Replays per measurement (§4: 10).
	Replays int
	// OnlineRuns for final reported speedups (§4: 10, no outlier removal).
	OnlineRuns int
	// Seed drives every stochastic component.
	Seed int64
	// TVCheck attaches the translation validator to every candidate compile:
	// each pass application is strict-verified and equivalence-checked
	// against its input, and a provable miscompile aborts the compile with a
	// tv-reject outcome before any replay runs. The search sees only the
	// failed bit, so the trace is the same with the flag on or off as long
	// as every strict rejection is a miscompile replay would also discard.
	// It is not on DroidFish: the strict verifier rejects unroll
	// applications that leave a phi argument on an unplaced constant, which
	// replay accepts, so the validated search evaluates fewer candidates
	// and finds a different winner.
	TVCheck bool
	// Obs, when set, traces the whole Fig. 6 loop — nested spans for
	// profile, capture, verify, search, and install plus counters and
	// histograms in the scope's registry — and is propagated to the capture
	// store, the replay loader, and the GA. Nil (the default) disables all
	// of it; observation never changes a Report (tests assert Reports are
	// identical with and without a scope, at any Parallelism).
	Obs *obs.Scope
	// RTrace, when set, receives the winning genome's rewrite trace: a
	// header, one entry per pass application of the winner's recompile, and
	// the image trailer (internal/lir/rtrace). Like Obs it is observation
	// only — the policy lock embedded in the Report is computed identically
	// whether or not a trace destination is configured, so reports stay
	// byte-identical with tracing on or off.
	RTrace *obs.JSONLWriter
}

// DefaultOptions mirrors §4.
func DefaultOptions() Options {
	return Options{GA: ga.DefaultOptions(), Replays: 10, OnlineRuns: 10, Seed: 1}
}

// Report is the pipeline outcome for one app.
type Report struct {
	App    string
	Region profile.Region

	Breakdown profile.Breakdown
	Capture   capture.Stats

	VerifyMapSize int

	// Region-level replay means (ms).
	AndroidRegionMs float64
	O3RegionMs      float64
	GARegionMs      float64

	// Whole-program online cycle counts (mean of OnlineRuns).
	AndroidOnlineCycles float64
	O3OnlineCycles      float64
	GAOnlineCycles      float64

	// Headline speedups over the Android baseline (Fig. 7).
	SpeedupO3 float64
	SpeedupGA float64
	// Hot-region-only speedup (Fig. 9's scale).
	RegionSpeedupGA float64
	// KeptBaseline reports that the search never beat the out-of-the-box
	// binary, so nothing was installed (rare; small search budgets).
	KeptBaseline bool

	Search *ga.Result
	Best   lir.Config
	// SearchStats summarizes the search's evaluation work: evaluations run,
	// memo-cache hits, and the replay wall-clock the cache saved.
	SearchStats ga.SearchStats

	// Lock pins the winning decision sequence as a policy-lock artifact: the
	// configuration (fingerprint-preserving), the region image fingerprint it
	// produced, and which passes actually fired. cmd/rtrace lock-check audits
	// it against a later compiler for drift.
	Lock *rtrace.Lock

	// installed is the code image actually installed (the winner, or the
	// baseline when KeptBaseline); OptimizeMulti cross-validates it.
	installed *machine.Program
}

// Optimizer runs the pipeline.
type Optimizer struct {
	Dev   *device.Device
	Store *capture.Store
	Opts  Options
}

// New returns an optimizer with a seeded device. The observation scope, if
// any, rides the capture store into every capture and replay.
func New(opts Options) *Optimizer {
	store := capture.NewStore()
	store.Obs = opts.Obs
	return &Optimizer{Dev: device.New(opts.Seed), Store: store, Opts: opts}
}

// Prepared bundles the pipeline state after profiling, capture, and
// verification (steps 1-4): everything needed to evaluate optimization
// decisions by replay. The experiment harness uses it directly.
type Prepared struct {
	App      *App
	Region   profile.Region
	Analysis *profile.Analysis
	Profile  *profile.Profile

	Breakdown profile.Breakdown
	Snapshot  *capture.Snapshot
	VMap      *verify.Map
	TypeProf  *lir.Profile

	Android *machine.Program

	// Baseline region replays.
	AndroidEval   ga.Evaluation
	AndroidCycles uint64
	O3Eval        ga.Evaluation
	O3Cycles      uint64

	ev *replayEvaluator
}

// Evaluate measures one configuration by replay (ga.Evaluator) on a worker
// set borrowed from the idle pool. It is safe to call concurrently.
func (p *Prepared) Evaluate(cfg lir.Config) ga.Evaluation {
	ws := p.ev.bindWorker()
	defer p.ev.releaseWorker(ws)
	return ws.Evaluate(cfg)
}

// BindWorker implements ga.WorkerBinder: it hands each search worker
// goroutine a workerSet holding warm template clones.
func (p *Prepared) BindWorker() ga.Evaluator { return p.ev.bindWorker() }

// ReleaseWorker returns a bound workerSet to the idle pool so later
// generations (and the hill climb) reuse its warm spaces.
func (p *Prepared) ReleaseWorker(e ga.Evaluator) { p.ev.releaseWorker(e.(*workerSet)) }

// EvaluateImage measures a complete code image by replay.
func (p *Prepared) EvaluateImage(code *machine.Program) (ga.Evaluation, uint64) {
	ie := p.ev.measureImage(code)
	return ie.Evaluation, ie.cycles
}

// CompileRegion compiles the hot region under cfg (with the type profile)
// and overlays it onto the baseline image.
func (p *Prepared) CompileRegion(cfg lir.Config) (*machine.Program, error) {
	code, err := lir.Compile(p.App.Prog, p.Region.Methods, cfg, p.TypeProf, p.Analysis.Effects)
	if err != nil {
		return nil, err
	}
	return overlay(p.Android, code), nil
}

// TraceRegion recompiles the hot region under cfg with the rewrite-trace
// recorder attached and cuts the policy lock pinning cfg's decision sequence
// (internal/lir/rtrace). When w is nil the entries go nowhere, but the lock —
// fired counts plus the region image fingerprint — is still computed from the
// same deterministic recompile, so Optimize embeds it in every Report and
// reports stay byte-identical whether or not a trace destination is set. The
// recorded image hash covers the region compile alone (not the overlaid
// baseline): that is exactly what a replaying consumer can rebuild from the
// trace header.
func (p *Prepared) TraceRegion(seed int64, cfg lir.Config, w *obs.JSONLWriter) (*rtrace.Lock, error) {
	opts := rtrace.RecorderOptions{}
	if w == nil {
		w = obs.NewJSONLWriter(io.Discard)
	} else {
		opts.DiffLines = rtrace.DefaultDiffLines
	}
	if p.ev.tvcheck {
		chk := tv.NewChecker(tv.Options{Reject: true, Strict: true})
		cfg.Check = chk
		opts.Checker = chk
	}
	rec := rtrace.NewRecorder(w, opts)
	if err := rec.WriteHeader(p.App.Name, seed, cfg, p.Region.Methods); err != nil {
		return nil, err
	}
	cfg.Trace = rec
	code, err := lir.Compile(p.App.Prog, p.Region.Methods, cfg, p.TypeProf, p.Analysis.Effects)
	if err != nil {
		return nil, fmt.Errorf("core: traced recompile: %w", err)
	}
	img := machine.HashProgram(code)
	if err := rec.Finish(img); err != nil {
		return nil, err
	}
	if err := rec.Err(); err != nil {
		return nil, err
	}
	return rtrace.BuildLock(p.App.Name, cfg, img, rec.Fired()), nil
}

// Prepare runs pipeline steps 1-5: profile, detect, capture, verify, and
// measure the two baselines.
func (o *Optimizer) Prepare(app *App) (*Prepared, error) {
	return o.prepare(app, nil)
}

// prepare is Prepare with an optional parent span: called under Optimize's
// pipeline span the stage spans nest below it, standalone they root their
// own trace.
func (o *Optimizer) prepare(app *App, parent *obs.Span) (p *Prepared, err error) {
	prep := o.Opts.Obs.StartUnder(parent, "prepare", obs.A("app", app.Name))
	defer func() {
		if err != nil {
			prep.Attr("error", err.Error())
		}
		prep.End()
	}()
	p = &Prepared{App: app}

	android, err := aot.Compile(app.Prog)
	if err != nil {
		return nil, fmt.Errorf("core: baseline compile: %w", err)
	}
	p.Android = android

	// 1) Online profiling run, 2) hot region + breakdown.
	sp := prep.Start("profile")
	prof := profile.NewProfile()
	_, x := app.NewProcessAndExec(android)
	x.SamplePeriod = profile.SamplePeriodCycles
	x.Sampler = prof
	x.MaxCycles = 50_000_000_000
	if _, err := x.Call(app.Prog.Entry, nil); err != nil {
		sp.End(obs.A("error", err.Error()))
		return nil, fmt.Errorf("core: online profiling run: %w", err)
	}
	p.Profile = prof

	p.Analysis = profile.Analyze(app.Prog)
	eff := p.Analysis.Effects
	// Interprocedural value-range and points-to summaries for the lir range
	// and memory passes. Both are pure functions of the program, so
	// attaching them never perturbs config fingerprints or search traces.
	vra.Attach(eff)
	pts.Attach(eff)
	region, ok := profile.HotRegion(app.Prog, p.Analysis, prof)
	if !ok {
		sp.End(obs.A("error", "no replayable hot region"))
		return nil, fmt.Errorf("core: %s has no replayable hot region", app.Name)
	}
	p.Region = region
	p.Breakdown = profile.Classify(app.Prog, p.Analysis, prof, region)
	rparams, rrets := vra.Narrowed(eff.Ranges)
	sites, nonEsc, bounded := pts.Stats(eff.Alias)
	sp.End(
		obs.A("region_root", app.Prog.Methods[region.Root].Name),
		obs.A("region_methods", len(region.Methods)),
		obs.A("samples", region.EstimatedSamples),
		obs.A("analysis", "effects"),
		obs.A("region_effect", eff.Summary[region.Root].String()),
		obs.A("range_params_narrowed", rparams),
		obs.A("range_rets_narrowed", rrets),
		obs.A("alias_sites", sites),
		obs.A("alias_non_escaping", nonEsc),
		obs.A("alias_bounded_methods", bounded),
	)

	// 3) Capture during a later online run.
	sp = prep.Start("capture")
	snap, err := o.captureOnline(app, android, region.Root)
	if err != nil {
		sp.End(obs.A("error", err.Error()))
		return nil, err
	}
	p.Snapshot = snap
	sp.End(
		obs.A("online_ms", snap.Stats.TotalMs()),
		obs.A("pages_stored", snap.Stats.PagesStored+snap.Stats.AlwaysStored),
		obs.A("read_faults", snap.Stats.ReadFaults),
		obs.A("write_faults", snap.Stats.WriteFaults),
		obs.A("program_bytes", snap.Stats.ProgramBytes()),
	)

	// 4) Interpreted replay: verification map + type profile.
	sp = prep.Start("verify")
	vmap, typeProf, err := verify.Build(o.Dev, o.Store, snap, app.Prog, p.Analysis.Effects)
	if err != nil {
		sp.End(obs.A("error", err.Error()))
		return nil, fmt.Errorf("core: verification build: %w", err)
	}
	p.VMap = vmap
	p.TypeProf = typeProf
	sp.End(obs.A("vmap_size", vmap.Size()), obs.A("stores_skipped", vmap.StoresSkipped),
		obs.A("stores_elided", vmap.StoresElided))

	// 5) Baselines at region level.
	sp = prep.Start("baselines")
	p.ev = &replayEvaluator{
		o: o, app: app, snap: snap, vmap: vmap, prof: typeProf,
		static: p.Analysis.Effects, region: region, android: android,
		tvcheck: o.Opts.TVCheck, templates: replay.NewTemplateCache(),
	}
	andEval := p.ev.measureImage(android)
	if andEval.Outcome.Failed() {
		sp.End(obs.A("error", "baseline failed its own replay"))
		return nil, fmt.Errorf("core: baseline failed its own replay: %s", andEval.Outcome)
	}
	p.ev.maxCycles = andEval.cycles * 12 // runtime-timeout budget
	p.AndroidEval = andEval.Evaluation
	p.AndroidCycles = andEval.cycles

	o3Code, err := p.CompileRegion(lir.O3())
	if err != nil {
		sp.End(obs.A("error", err.Error()))
		return nil, fmt.Errorf("core: -O3 compile: %w", err)
	}
	o3Eval := p.ev.measureImage(o3Code)
	if o3Eval.Outcome.Failed() {
		sp.End(obs.A("error", "-O3 failed verification"))
		return nil, fmt.Errorf("core: -O3 failed verification: %s", o3Eval.Outcome)
	}
	p.O3Eval = o3Eval.Evaluation
	p.O3Cycles = o3Eval.cycles
	sp.End(obs.A("android_ms", p.AndroidEval.MeanMs), obs.A("o3_ms", p.O3Eval.MeanMs))
	return p, nil
}

// Optimize runs the full pipeline for app.
func (o *Optimizer) Optimize(app *App) (rep *Report, err error) {
	pipe := o.Opts.Obs.Start("pipeline", obs.A("app", app.Name))
	defer func() {
		if err != nil {
			pipe.Attr("error", err.Error())
		}
		pipe.End()
	}()
	p, err := o.prepare(app, pipe)
	if err != nil {
		return nil, err
	}
	rep = &Report{App: app.Name}
	rep.Region = p.Region
	rep.Breakdown = p.Breakdown
	rep.Capture = p.Snapshot.Stats
	rep.VerifyMapSize = p.VMap.Size()
	rep.AndroidRegionMs = p.AndroidEval.MeanMs
	rep.O3RegionMs = p.O3Eval.MeanMs

	// 6) GA search.
	search := pipe.Start("search")
	gaOpts := o.Opts.GA
	gaOpts.BaselineAndroidMs = rep.AndroidRegionMs
	gaOpts.BaselineO3Ms = rep.O3RegionMs
	gaOpts.Obs = search
	p.ev.obsParent = search
	rng := rand.New(rand.NewSource(o.Opts.Seed*7919 + int64(len(app.Name))))
	rep.Search = ga.Search(rng, p, gaOpts)
	p.ev.obsParent = nil
	rep.SearchStats = rep.Search.Stats
	rep.Best = rep.Search.Best.Decode()
	rep.GARegionMs = rep.Search.BestEval.MeanMs
	if rep.GARegionMs > 0 {
		rep.RegionSpeedupGA = rep.AndroidRegionMs / rep.GARegionMs
	}
	search.End(
		obs.A("evaluations", rep.SearchStats.Evaluations),
		obs.A("cache_hits", rep.SearchStats.CacheHits),
		obs.A("halt", rep.Search.Halt),
		obs.A("best_ms", rep.GARegionMs),
		obs.A("region_speedup", rep.RegionSpeedupGA),
	)

	// 6b) Pin the winning decision sequence: one traced recompile of the
	// winner cuts the policy lock embedded in the report and, when Options
	// configure a trace destination, the full rewrite trace. The recompile is
	// deterministic, so the lock — and therefore the Report — does not depend
	// on whether tracing was on.
	rts := pipe.Start("rtrace", obs.A("traced", o.Opts.RTrace != nil))
	lock, err := p.TraceRegion(o.Opts.Seed, rep.Best, o.Opts.RTrace)
	if err != nil {
		rts.End(obs.A("error", err.Error()))
		return nil, fmt.Errorf("core: winner trace: %w", err)
	}
	rep.Lock = lock
	rts.End(obs.A("fired_passes", len(lock.Fired)))

	// 7) Install the winner — unless it lost to the out-of-the-box binary,
	// in which case the system keeps the baseline (§1: the search must have
	// "no negative impact on the user experience"). Then measure whole-
	// program speedups outside the replay environment.
	install := pipe.Start("install")
	bestCode, err := p.CompileRegion(rep.Best)
	if err != nil {
		install.End(obs.A("error", err.Error()))
		return nil, fmt.Errorf("core: best genome stopped compiling: %w", err)
	}
	if rep.GARegionMs > rep.AndroidRegionMs {
		bestCode = p.Android
		rep.GARegionMs = rep.AndroidRegionMs
		rep.RegionSpeedupGA = 1.0
		rep.KeptBaseline = true
	}
	o3Code, err := p.CompileRegion(lir.O3())
	if err != nil {
		install.End(obs.A("error", err.Error()))
		return nil, err
	}
	rep.installed = bestCode
	rep.AndroidOnlineCycles = o.onlineCycles(app, p.Android)
	rep.O3OnlineCycles = o.onlineCycles(app, o3Code)
	rep.GAOnlineCycles = o.onlineCycles(app, bestCode)
	if rep.GAOnlineCycles > 0 {
		rep.SpeedupGA = rep.AndroidOnlineCycles / rep.GAOnlineCycles
	}
	if rep.O3OnlineCycles > 0 {
		rep.SpeedupO3 = rep.AndroidOnlineCycles / rep.O3OnlineCycles
	}
	install.End(
		obs.A("kept_baseline", rep.KeptBaseline),
		obs.A("speedup_ga", rep.SpeedupGA),
		obs.A("speedup_o3", rep.SpeedupO3),
	)
	return rep, nil
}

// captureOnline runs the app online and snapshots the hot region's state at
// its first armed entry.
func (o *Optimizer) captureOnline(app *App, code *machine.Program, root dex.MethodID) (*capture.Snapshot, error) {
	var snap *capture.Snapshot
	var capErr error
	for attempt := 0; attempt < 3; attempt++ {
		_, x := app.NewProcessAndExec(code)
		x.MaxCycles = 50_000_000_000
		force := attempt == 2 // last resort: capture right after a collection
		hook := &machine.CaptureHook{Method: root}
		hook.Wrap = func(args []uint64, call func() (uint64, error)) (uint64, error) {
			if force && x.Proc.GCImminent() {
				// An app whose allocation clock permanently hovers below
				// the automatic threshold would postpone forever; the
				// scheduler requests an explicit collection and captures
				// the next entry.
				x.Proc.ForceGC()
			}
			var ret uint64
			var runErr error
			snap, capErr = capture.Capture(x.Proc, o.Dev, o.Store, root, args,
				app.NativeSeed, func() error {
					ret, runErr = call()
					return runErr
				})
			if capErr == capture.ErrGCPostponed {
				// Run the region normally and try again at its next entry.
				hook.Rearm()
				return call()
			}
			return ret, runErr
		}
		x.Hook = hook
		if _, err := x.Call(app.Prog.Entry, nil); err != nil {
			return nil, fmt.Errorf("core: online capture run: %w", err)
		}
		if snap != nil {
			return snap, nil
		}
		if capErr != nil && capErr != capture.ErrGCPostponed {
			return nil, capErr
		}
	}
	return nil, fmt.Errorf("core: capture kept being postponed for %s", app.Name)
}

// onlineCycles measures the whole program under code (§4: interactive runs
// with fixed inputs, averaged without outlier removal).
func (o *Optimizer) onlineCycles(app *App, code *machine.Program) float64 {
	var xs []float64
	for i := 0; i < o.Opts.OnlineRuns; i++ {
		_, x := app.NewProcessAndExec(code)
		x.MaxCycles = 50_000_000_000
		if _, err := x.Call(app.Prog.Entry, nil); err != nil {
			return 0
		}
		xs = append(xs, float64(x.Cycles))
	}
	return stats.Mean(xs)
}

// overlay returns base with the region methods replaced by repl's versions.
func overlay(base, repl *machine.Program) *machine.Program {
	out := &machine.Program{Fns: make(map[dex.MethodID]*machine.Fn, len(base.Fns)+len(repl.Fns))}
	//detlint:allow map-range — keyed writes into a fresh program; order irrelevant
	for id, fn := range base.Fns {
		out.Fns[id] = fn
	}
	//detlint:allow map-range — keyed writes into a fresh program; order irrelevant
	for id, fn := range repl.Fns {
		out.Fns[id] = fn
	}
	return out
}

// replayEvaluator measures genomes by replaying the captured region (Fig. 6
// main loop).
type replayEvaluator struct {
	o         *Optimizer
	app       *App
	snap      *capture.Snapshot
	vmap      *verify.Map
	prof      *lir.Profile
	static    *sa.Result
	region    profile.Region
	android   *machine.Program
	maxCycles uint64
	// tvcheck attaches a fresh translation-validation checker to every
	// candidate compile (Options.TVCheck).
	tvcheck bool
	// obsParent, when set (serially, before evaluations fan out), parents
	// the per-discard audit spans under the search span.
	obsParent *obs.Span
	// templates caches the restored spaces and idle holds released
	// workerSets for reuse across evaluation batches.
	templates *replay.TemplateCache
	mu        sync.Mutex
	idle      []*workerSet
}

// workerSet is the per-goroutine warm evaluation context: one replay.Worker
// per canonical ASLR seed, lazily cloned from the shared template cache. It
// is owned by a single search worker between bind and release.
type workerSet struct {
	ev *replayEvaluator
	w  map[int64]*replay.Worker
}

// Evaluate implements ga.Evaluator on the bound worker.
func (ws *workerSet) Evaluate(cfg lir.Config) ga.Evaluation { return ws.ev.evaluate(cfg, ws) }

// worker returns the set's warm worker for one canonical ASLR seed.
func (ws *workerSet) worker(seed int64) (*replay.Worker, error) {
	if w, ok := ws.w[seed]; ok {
		return w, nil
	}
	t, err := ws.ev.templates.Get(ws.ev.o.Store, ws.ev.snap, seed)
	if err != nil {
		return nil, err
	}
	w := t.NewWorker()
	ws.w[seed] = w
	return w, nil
}

func (ev *replayEvaluator) bindWorker() *workerSet {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if n := len(ev.idle); n > 0 {
		ws := ev.idle[n-1]
		ev.idle = ev.idle[:n-1]
		return ws
	}
	return &workerSet{ev: ev, w: map[int64]*replay.Worker{}}
}

func (ev *replayEvaluator) releaseWorker(ws *workerSet) {
	ev.mu.Lock()
	ev.idle = append(ev.idle, ws)
	ev.mu.Unlock()
}

// discard audits one discarded candidate: the coarse Fig. 1 outcome class
// keeps its counter, the stable cause label feeds the core.discard_causes
// tally (stable strings so dashboards and the §3.7 schedule report can key
// on them across runs), and the raw error text — which classification would
// otherwise collapse away — rides the eval.discard span for auditing. passes
// is the bounded pass-pipeline label of the discarded candidate (empty for
// whole-image measurements, which have no pass pipeline of their own), so a
// discard is attributable to its decision sequence without a full trace.
func (ev *replayEvaluator) discard(outcome ga.Outcome, cause string, err error, passes string) {
	sc := ev.o.Opts.Obs
	if sc == nil {
		return
	}
	sc.Tally("core.discards").Inc(outcome.String())
	sc.Tally("core.discard_causes").Inc(cause)
	detail := "unknown"
	if err != nil {
		detail = err.Error()
	}
	attrs := []obs.Attr{
		obs.A("outcome", outcome.String()),
		obs.A("cause", cause),
		obs.A("error", truncateLabel(detail, 200)),
	}
	if passes != "" {
		attrs = append(attrs, obs.A("passes", passes))
	}
	sp := sc.StartUnder(ev.obsParent, "eval.discard")
	sp.End(attrs...)
}

// passesLabel renders a candidate's pass pipeline as a bounded span label:
// pass names in genome order with their explicit parameters inline, truncated
// past 200 bytes. Cheap enough for the discard path; never computed when
// observation is off.
func passesLabel(specs []lir.PassSpec) string {
	var b strings.Builder
	for i, s := range specs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Name)
		if len(s.Params) > 0 {
			names := make([]string, 0, len(s.Params))
			//detlint:allow map-range — names are sorted before rendering
			for name := range s.Params {
				names = append(names, name)
			}
			sort.Strings(names)
			b.WriteByte('{')
			for j, name := range names {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s:%d", name, s.Params[name])
			}
			b.WriteByte('}')
		}
		if b.Len() > 200 {
			break
		}
	}
	return truncateLabel(b.String(), 200)
}

// DiscardCause maps an evaluation error to its stable cause label. Distinct
// failure mechanisms that share a Fig. 1 outcome class keep distinct labels:
// a compiler crash, a compiler timeout, a lowering failure, and a
// translation-validation rejection are all different facts about a pass
// pipeline even though the GA treats each as "failed".
func DiscardCause(err error) string {
	var rej *tv.RejectError
	var crash *lir.CrashError
	var timeout *lir.TimeoutError
	var mcerr *machine.CompileError
	var trap *rt.Trap
	var access *mem.AccessError
	var thrown *interp.ThrownError
	switch {
	case errors.As(err, &rej):
		return "tv-reject"
	case errors.As(err, &timeout):
		return "compile-timeout"
	case errors.As(err, &crash):
		return "compile-crash"
	case errors.As(err, &mcerr):
		return "lower-error"
	case errors.Is(err, machine.ErrTimeout), errors.Is(err, interp.ErrTimeout):
		return "runtime-timeout"
	case errors.Is(err, machine.ErrStackOverflow), errors.Is(err, interp.ErrStackOverflow):
		return "runtime-stack-overflow"
	case errors.As(err, &trap), errors.As(err, &access), errors.As(err, &thrown):
		return "runtime-crash"
	default:
		return "other"
	}
}

func truncateLabel(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

type imageEval struct {
	ga.Evaluation
	cycles uint64
}

// measureImage measures a whole code image on a worker set borrowed from the
// idle pool.
func (ev *replayEvaluator) measureImage(code *machine.Program) imageEval {
	ws := ev.bindWorker()
	defer ev.releaseWorker(ws)
	return ev.evaluateImage(code, ws, "")
}

// evaluate compiles the region under cfg, replays the capture, verifies,
// and times it. A nil ws restores each replay from scratch: the reference
// the warm path is tested against.
func (ev *replayEvaluator) evaluate(cfg lir.Config, ws *workerSet) ga.Evaluation {
	if ev.tvcheck {
		// A fresh checker per evaluation: Evaluate runs concurrently and a
		// Checker serves one compile. cfg is a value copy and Fingerprint
		// ignores harness settings, so the memo cache is unaffected.
		cfg.Check = tv.NewChecker(tv.Options{Reject: true, Strict: true})
	}
	var passes string
	if ev.o.Opts.Obs != nil {
		passes = passesLabel(cfg.Passes)
		// Nest the candidate's per-pass compile spans and latency histograms
		// under the search span; like every obs hook this never feeds back
		// into the measurement.
		cfg.Obs = ev.obsParent
	}
	code, err := lir.Compile(ev.app.Prog, ev.region.Methods, cfg, ev.prof, ev.static)
	if err != nil {
		outcome := classifyCompileError(err)
		ev.discard(outcome, DiscardCause(err), err, passes)
		return ga.Evaluation{Outcome: outcome}
	}
	return ev.evaluateImage(overlay(ev.android, code), ws, passes).Evaluation
}

// evaluateImage replays a full code image: two real replays under different
// ASLR layouts (whose deterministic cycle counts must agree), a verification
// check, and Replays noisy clock readings for the statistics (§4).
//
// The whole measurement is a pure function of the code image: ASLR layouts
// and timing noise are derived from the image hash, never from shared
// sequential state. That is what lets ga.Search call Evaluate concurrently
// and memoize by configuration without changing any result.
//
// The two replays run on ws's template clones, built under canonical ASLR
// seeds. With a nil ws (the test reference), or when a template cannot be
// built, each replay restores from scratch under an image-hash-derived seed
// instead. Replay cycle counts are layout-independent (the replay package's
// determinism test), and every Evaluation field derives from cycles and the
// image hash only, so warm and cold measurements are identical byte for
// byte (TestPipelineWarmMatchesColdAcrossParallelism checks each one).
func (ev *replayEvaluator) evaluateImage(code *machine.Program, ws *workerSet, passes string) imageEval {
	imgHash := hashImage(code)
	run := func(seed int64) (*replay.Result, error) {
		req := replay.Request{
			Snapshot:  ev.snap,
			Prog:      ev.app.Prog,
			Tier:      replay.TierCompiled,
			Code:      code,
			MaxCycles: ev.maxCycles,
		}
		if ws != nil {
			w, err := ws.worker(seed)
			if err == nil {
				req.Worker = w
				return replay.Run(ev.o.Dev, ev.o.Store, req)
			}
			// Template build failed: fall back to the cold path (the same
			// failure would surface deterministically there too).
		}
		req.ASLRSeed = int64(imgHash>>1)*131 + seed
		return replay.Run(ev.o.Dev, ev.o.Store, req)
	}
	res, err := run(1)
	if err != nil {
		outcome := classifyRuntimeError(err)
		ev.discard(outcome, DiscardCause(err), err, passes)
		return imageEval{Evaluation: ga.Evaluation{Outcome: outcome}}
	}
	if err := ev.vmap.Check(res); err != nil {
		ev.discard(ga.OutcomeWrongOutput, "verify-mismatch", err, passes)
		return imageEval{Evaluation: ga.Evaluation{Outcome: ga.OutcomeWrongOutput}}
	}
	// Replays under a second ASLR layout must agree cycle-for-cycle;
	// clearly losing binaries skip the cross-check (they are never
	// installed, and re-running a near-timeout binary doubles its cost).
	if ev.maxCycles == 0 || res.Cycles*4 <= ev.maxCycles {
		res2, err := run(2)
		if err != nil || res2.Cycles != res.Cycles {
			// Nondeterministic candidate: treat as wrong output.
			if err == nil {
				err = fmt.Errorf("nondeterministic: %d cycles under the second ASLR layout, %d under the first",
					res2.Cycles, res.Cycles)
			}
			ev.discard(ga.OutcomeWrongOutput, "nondeterministic", err, passes)
			return imageEval{Evaluation: ga.Evaluation{Outcome: ga.OutcomeWrongOutput}}
		}
	}
	n := ev.o.Opts.Replays
	if n <= 0 {
		n = 10
	}
	times := make([]float64, n)
	nrng := rand.New(rand.NewSource(ev.o.Opts.Seed ^ int64(imgHash)))
	for i := range times {
		times[i] = device.ReplayMillisSeeded(res.Cycles, nrng)
	}
	clean := stats.RemoveOutliersMAD(times, 3)
	return imageEval{
		Evaluation: ga.Evaluation{
			Outcome:    ga.OutcomeCorrect,
			TimesMs:    times,
			MeanMs:     stats.Mean(clean),
			SizeBytes:  code.Size(),
			BinaryHash: imgHash,
		},
		cycles: res.Cycles,
	}
}

func classifyCompileError(err error) ga.Outcome {
	var rej *tv.RejectError
	var crash *lir.CrashError
	var timeout *lir.TimeoutError
	var mcerr *machine.CompileError
	switch {
	case errors.As(err, &rej):
		return ga.OutcomeTVReject
	case errors.As(err, &timeout):
		return ga.OutcomeCompilerTimeout
	case errors.As(err, &crash), errors.As(err, &mcerr):
		return ga.OutcomeCompilerError
	default:
		return ga.OutcomeCompilerError
	}
}

func classifyRuntimeError(err error) ga.Outcome {
	var trap *rt.Trap
	var access *mem.AccessError
	var thrown *interp.ThrownError
	switch {
	case errors.Is(err, machine.ErrTimeout), errors.Is(err, interp.ErrTimeout):
		return ga.OutcomeRuntimeTimeout
	case errors.As(err, &trap), errors.As(err, &access), errors.As(err, &thrown),
		errors.Is(err, machine.ErrStackOverflow), errors.Is(err, interp.ErrStackOverflow):
		return ga.OutcomeRuntimeCrash
	default:
		return ga.OutcomeRuntimeCrash
	}
}

// hashImage fingerprints generated code for the identical-binaries halt; the
// digest is machine.HashProgram's, shared with the rtrace replayer's
// fingerprint-identity proof.
func hashImage(code *machine.Program) uint64 { return machine.HashProgram(code) }
