package replayopt

// The benchmark harness for the subsystems: each benchmark measures one
// layer and writes its committed BENCH_*.json artifact. The paper's tables
// and figures come from cmd/experiments alone.

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"replayopt/internal/aot"
	"replayopt/internal/apps"
	"replayopt/internal/capture"
	"replayopt/internal/capture/castore"
	"replayopt/internal/core"
	"replayopt/internal/device"
	"replayopt/internal/dex"
	"replayopt/internal/exp"
	"replayopt/internal/ga"
	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/mem"
	"replayopt/internal/minic"
	"replayopt/internal/obs"
	"replayopt/internal/profile"
	"replayopt/internal/rt"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
	"replayopt/internal/schema"
	"replayopt/internal/verify"
)

// writeArtifact writes doc to path as indented JSON, once the bytes have
// passed the strict decode and Check that cmd/benchlint applies to them.
func writeArtifact(b *testing.B, path string, doc schema.Checker) {
	b.Helper()
	data, err := schema.Encode(doc)
	if err != nil {
		b.Fatalf("%s: %v", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEffectAnalysis measures what the interprocedural effect analysis
// (internal/sa) buys over the §3.1 boolean blocklist: deep-replayable method
// coverage, guards the backend no longer emits (GC checks eliminated, virtual
// calls devirtualized), and the §3.4 verification-map size for a region the
// analysis proves free of heap writes. Results land in BENCH_sa.json
// (sa.Bench, checked by cmd/benchlint).
func BenchmarkEffectAnalysis(b *testing.B) {
	appNames := []string{"FFT", "BubbleSort", "MaterialLife", "DroidFish"}

	countOps := func(code *machine.Program) (gcchk, callv int) {
		for _, fn := range code.Fns {
			for _, in := range fn.Code {
				switch in.Op {
				case machine.GCChk:
					gcchk++
				case machine.CallV:
					callv++
				}
			}
		}
		return
	}

	var rows []sa.BenchRow
	var vmaps []sa.BenchVmapRow
	for i := 0; i < b.N; i++ {
		rows, vmaps = nil, nil
		for _, name := range append(appNames, "WitnessFilter") {
			app := benchApp(b, name)
			eff := profile.Analyze(app.Prog)
			block := profile.AnalyzeBlocklist(app.Prog)
			row := sa.BenchRow{App: name, Methods: len(app.Prog.Methods)}
			var compilable []dex.MethodID
			for id := range app.Prog.Methods {
				if block.ReplayableDeep[id] {
					row.DeepBlocklist++
				}
				if eff.ReplayableDeep[id] {
					row.DeepEffects++
				}
				if eff.Compilable[id] {
					compilable = append(compilable, dex.MethodID(id))
				}
			}
			// O2 plus the two guard-bearing custom passes the GA searches
			// over: with a nil static result both degrade to conservative
			// behavior, so the delta is exactly what the analysis eliminates.
			cfg := lir.O2()
			cfg.Passes = append(cfg.Passes,
				lir.PassSpec{Name: "gccheckelim"},
				lir.PassSpec{Name: "devirt"})
			base, err := lir.Compile(app.Prog, compilable, cfg, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			opt, err := lir.Compile(app.Prog, compilable, cfg, nil, eff.Effects)
			if err != nil {
				b.Fatal(err)
			}
			row.GCChkBaseline, row.CallVBaseline = countOps(base)
			row.GCChkEffects, row.CallVEffects = countOps(opt)
			rows = append(rows, row)
		}

		// Verification-map size for a region the analysis proves write-free
		// (the witness app's pure kernel) and a representative escaping-write
		// region (FFT), each built conservatively and effect-aware.
		for _, name := range []string{"WitnessFilter", "FFT"} {
			app := benchApp(b, name)
			opt := core.New(core.DefaultOptions())
			p, err := opt.Prepare(app)
			if err != nil {
				b.Fatal(err)
			}
			cons, _, err := verify.Build(opt.Dev, opt.Store, p.Snapshot, app.Prog, nil)
			if err != nil {
				b.Fatal(err)
			}
			effm, _, err := verify.Build(opt.Dev, opt.Store, p.Snapshot, app.Prog, p.Analysis.Effects)
			if err != nil {
				b.Fatal(err)
			}
			vmaps = append(vmaps, sa.BenchVmapRow{
				App:                 name,
				Region:              app.Prog.Methods[p.Region.Root].Name,
				RegionEffect:        p.Analysis.Effects.Summary[p.Region.Root].String(),
				EntriesConservative: len(cons.Entries),
				EntriesEffects:      len(effm.Entries),
				StoresSkipped:       effm.StoresSkipped,
			})
		}
	}

	var deepBlock, deepEff, gcElim, callvElim int
	for _, r := range rows {
		deepBlock += r.DeepBlocklist
		deepEff += r.DeepEffects
		gcElim += r.GCChkBaseline - r.GCChkEffects
		callvElim += r.CallVBaseline - r.CallVEffects
	}
	b.ReportMetric(float64(deepEff-deepBlock), "deep-replayable-gain")
	b.ReportMetric(float64(gcElim), "gcchk-eliminated")
	b.ReportMetric(float64(callvElim), "callv-devirtualized")

	writeArtifact(b, "BENCH_sa.json", &sa.Bench{
		Apps:               rows,
		Benchmark:          "EffectAnalysis",
		CallVDevirtualized: callvElim,
		DeepBlocklist:      deepBlock,
		DeepEffects:        deepEff,
		GCChkEliminated:    gcElim,
		SchemaVersion:      sa.BenchSchemaVersion,
		Vmap:               vmaps,
	})
	fmt.Printf("effect analysis: deep-replayable %d -> %d; %d GC checks eliminated, %d virtual calls devirtualized\n",
		deepBlock, deepEff, gcElim, callvElim)
}

// benchApp builds the named app: one of Table 1's, or the WitnessFilter or
// ScratchFilter subject of the analysis benchmarks.
func benchApp(b *testing.B, name string) *core.App {
	b.Helper()
	spec, ok := apps.ByName(name)
	switch name {
	case "WitnessFilter":
		spec, ok = apps.WitnessSpec(), true
	case "ScratchFilter":
		spec, ok = apps.ScratchSpec(), true
	}
	if !ok {
		b.Fatalf("unknown app %s", name)
	}
	app, err := apps.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// benchHotRegion builds the named app and locates its hot region exactly as
// the optimizer's prepare stage does: one profiled online run under the
// Android compiler.
func benchHotRegion(b *testing.B, name string) (*core.App, *profile.Analysis, profile.Region) {
	b.Helper()
	app := benchApp(b, name)
	android, err := aot.Compile(app.Prog)
	if err != nil {
		b.Fatal(err)
	}
	prof := profile.NewProfile()
	_, x := app.NewProcessAndExec(android)
	x.SamplePeriod = profile.SamplePeriodCycles
	x.Sampler = prof
	x.MaxCycles = 50_000_000_000
	if _, err := x.Call(app.Prog.Entry, nil); err != nil {
		b.Fatal(err)
	}
	analysis := profile.Analyze(app.Prog)
	region, ok := profile.HotRegion(app.Prog, analysis, prof)
	if !ok {
		b.Fatalf("%s: no replayable hot region", name)
	}
	return app, analysis, region
}

// benchCycles compiles the whole program under cfg and returns the exec
// cycles of one run.
func benchCycles(b *testing.B, app *core.App, cfg lir.Config, eff *sa.Result) uint64 {
	b.Helper()
	code, err := lir.Compile(app.Prog, nil, cfg, nil, eff)
	if err != nil {
		b.Fatal(err)
	}
	_, x := app.NewProcessAndExec(code)
	x.MaxCycles = 50_000_000_000
	if _, err := x.Call(app.Prog.Entry, nil); err != nil {
		b.Fatal(err)
	}
	return x.Cycles
}

// benchTraceParity reports whether the analysis summaries are invisible to
// a GA search whose pool excludes the passes that consume them: the search
// must make byte-identical decisions before and after detach removes them.
func benchTraceParity(b *testing.B, exclude []string, detach func(*sa.Result)) bool {
	b.Helper()
	p, _, err := exp.PrepareApp("Fibonacci.recv", 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := exp.Quick().GA
	opts.BaselineAndroidMs = p.AndroidEval.MeanMs
	opts.BaselineO3Ms = p.O3Eval.MeanMs
	opts.ExcludePasses = exclude
	with := ga.Search(rand.New(rand.NewSource(1)), p, opts).DecisionTrace()
	detach(p.Analysis.Effects)
	return with == ga.Search(rand.New(rand.NewSource(1)), p, opts).DecisionTrace()
}

// BenchmarkRangeAnalysis measures the interprocedural value-range analysis
// (internal/sa/vra) and its three consumer passes: per app, the machine-level
// bounds checks rangecheckelim discharges from the hot region (gated at >= 50%
// on the kernel subjects where index flow is range-provable), the unguarded
// divides rangestrength/rangecheckelim select, the whole-program exec-cycle
// delta, and the analysis wall-clock. It also proves the two safety
// properties the passes claim: a validated compile produces zero tv
// rejections, and a GA search with the range passes excluded from the pool
// yields a byte-identical decision trace whether summaries are attached or
// not. Results land in BENCH_range.json as a vra.Bench, whose Check holds
// these gates and runs before the file is written.
func BenchmarkRangeAnalysis(b *testing.B) {
	// Kernel subjects: hot regions whose index expressions the analysis can
	// relate to array lengths (direct len() loop bounds). The others are
	// reported but not gated — their loop bounds arrive through parameters
	// the range lattice cannot tie to a specific array.
	kernelApps := map[string]bool{"SOR": true, "SelectionSort": true}
	appNames := []string{"SOR", "SelectionSort", "FFT", "LU", "BubbleSort", "MaterialLife"}
	const minKernelDischargePct = 50.0

	countOps := func(code *machine.Program) (bound, divu int) {
		for _, fn := range code.Fns {
			for _, in := range fn.Code {
				switch in.Op {
				case machine.Bound:
					bound++
				case machine.DivU, machine.RemU:
					divu++
				}
			}
		}
		return
	}
	rangeSpecs := []lir.PassSpec{
		{Name: "rangecheckelim"},
		{Name: "rangebranch"},
		{Name: "rangestrength"},
		{Name: "simplifycfg"},
		{Name: "dce"},
	}

	var rows []vra.BenchRow
	var tvRejected int
	traceParity := false
	for i := 0; i < b.N; i++ {
		rows = nil
		tvRejected = 0
		for _, name := range appNames {
			app, analysis, region := benchHotRegion(b, name)
			start := time.Now()
			vra.Attach(analysis.Effects)
			analysisMs := time.Since(start).Seconds() * 1000

			// Hot-region discharge at O1 (no bce in the base pipeline, so
			// the delta is the range passes' own contribution).
			base, _ := lir.Preset("O1")
			opt := base
			opt.Passes = append(append([]lir.PassSpec{}, base.Passes...), rangeSpecs...)
			baseRegion, err := lir.Compile(app.Prog, region.Methods, base, nil, analysis.Effects)
			if err != nil {
				b.Fatal(err)
			}
			chk := tv.NewChecker(tv.Options{Strict: true})
			optChecked := opt
			optChecked.Check = chk
			optRegion, err := lir.Compile(app.Prog, region.Methods, optChecked, nil, analysis.Effects)
			if err != nil {
				b.Fatal(err)
			}
			_, _, rejected := chk.Counts()
			tvRejected += rejected

			row := vra.BenchRow{App: name, Kernel: kernelApps[name], AnalysisMs: analysisMs}
			row.BoundsBase, _ = countOps(baseRegion)
			row.BoundsOpt, row.UnguardedDivs = countOps(optRegion)
			if row.BoundsBase > 0 {
				row.DischargePct = 100 * float64(row.BoundsBase-row.BoundsOpt) / float64(row.BoundsBase)
			}

			// Whole-program exec-cycle delta with the range passes on.
			row.CyclesBase = benchCycles(b, app, base, analysis.Effects)
			row.CyclesOpt = benchCycles(b, app, opt, analysis.Effects)
			row.CycleDeltaPct = (float64(row.CyclesOpt)/float64(row.CyclesBase) - 1) * 100
			rows = append(rows, row)
		}

		traceParity = benchTraceParity(b, []string{"rangecheckelim", "rangebranch", "rangestrength"},
			func(eff *sa.Result) { eff.Ranges = nil })
	}

	var discharged, totalBase int
	var analysisMs float64
	for _, r := range rows {
		discharged += r.BoundsBase - r.BoundsOpt
		totalBase += r.BoundsBase
		analysisMs += r.AnalysisMs
	}
	b.ReportMetric(float64(discharged), "bounds-discharged")
	b.ReportMetric(float64(discharged)/float64(totalBase)*100, "%discharged")
	b.ReportMetric(analysisMs/float64(len(rows)), "analysis-ms/app")

	writeArtifact(b, "BENCH_range.json", &vra.Bench{
		Apps:          rows,
		Benchmark:     "RangeAnalysis",
		Discharged:    discharged,
		KernelMinPct:  minKernelDischargePct,
		SchemaVersion: vra.BenchSchemaVersion,
		TraceApp:      "Fibonacci.recv",
		TraceParity:   traceParity,
		TVRejected:    tvRejected,
	})
	fmt.Printf("range analysis: %d/%d hot-region bounds checks discharged; tv rejects %d; trace parity %v\n",
		discharged, totalBase, tvRejected, traceParity)
	for _, r := range rows {
		fmt.Printf("  %-14s kernel=%-5v bound %3d -> %3d (%4.0f%%) divu %d  cycles %+.2f%%  analysis %.1f ms\n",
			r.App, r.Kernel, r.BoundsBase, r.BoundsOpt, r.DischargePct, r.UnguardedDivs, r.CycleDeltaPct, r.AnalysisMs)
	}
}

// BenchmarkAliasAnalysis measures the interprocedural points-to analysis
// (internal/sa/pts) and its four consumer passes: per app, how many of the
// same-kind access pairs the alias-blind passes must assume conflicting the
// analysis proves apart (gated at >= 30% on the kernel subjects whose hot
// loops mix provably distinct locations), the whole-program exec-cycle delta
// with the alias-aware memory pipeline on, and the verification-map shrink
// from eliding stores into provably non-escaping allocations. It also proves
// the two safety properties the passes claim: a validated compile produces
// zero tv rejections, and a GA search with the alias-consuming passes
// excluded from the pool yields a byte-identical decision trace whether
// summaries are attached or not. Results land in BENCH_alias.json as a
// pts.Bench, whose Check holds these gates and runs before the file is
// written.
func BenchmarkAliasAnalysis(b *testing.B) {
	// Kernel subjects: hot regions over several distinct arrays or fields,
	// where base/slot separation is provable. FFT and SOR are reported but
	// not gated — their kernels index one shared array with loop-carried
	// expressions no flow-insensitive analysis can separate.
	kernelApps := map[string]bool{"Sparse matmult": true, "Linpack": true, "Dhrystone": true}
	appNames := []string{"Sparse matmult", "Linpack", "Dhrystone", "FFT", "SOR", "MaterialLife"}
	const minKernelDisambiguationPct = 30.0

	aliasSpecs := []lir.PassSpec{
		{Name: "storeforward"},
		{Name: "dse"},
		{Name: "licm", Params: map[string]int{"loads": 1}},
		{Name: "stackalloc"},
		{Name: "simplifycfg"},
		{Name: "dce"},
	}

	var rows []pts.BenchRow
	var vmaps []pts.BenchVmapRow
	var tvRejected int
	traceParity := false
	for i := 0; i < b.N; i++ {
		rows, vmaps = nil, nil
		tvRejected = 0
		for _, name := range appNames {
			app, analysis, region := benchHotRegion(b, name)
			start := time.Now()
			pts.Attach(analysis.Effects)
			analysisMs := time.Since(start).Seconds() * 1000

			rep := pts.BuildReport(name, analysis.Effects, region.Methods)
			row := pts.BenchRow{
				App: name, Kernel: kernelApps[name], AnalysisMs: analysisMs,
				Pairs: rep.Totals.Pairs, Proven: rep.Totals.Proven,
				Sites: rep.Totals.Sites, NonEscaping: rep.Totals.NonEscaping,
			}
			if row.Pairs > 0 {
				row.DisambiguationPct = 100 * float64(row.Proven) / float64(row.Pairs)
			}

			// Hot-region compile at O1 + the alias-aware memory pipeline,
			// strict-validated: these passes must never earn a Rejected.
			base, _ := lir.Preset("O1")
			opt := base
			opt.Passes = append(append([]lir.PassSpec{}, base.Passes...), aliasSpecs...)
			chk := tv.NewChecker(tv.Options{Strict: true})
			optChecked := opt
			optChecked.Check = chk
			if _, err := lir.Compile(app.Prog, region.Methods, optChecked, nil, analysis.Effects); err != nil {
				b.Fatal(err)
			}
			_, _, rejected := chk.Counts()
			tvRejected += rejected

			// Whole-program exec-cycle delta with the memory passes on.
			row.CyclesBase = benchCycles(b, app, base, analysis.Effects)
			row.CyclesOpt = benchCycles(b, app, opt, analysis.Effects)
			row.CycleDeltaPct = (float64(row.CyclesOpt)/float64(row.CyclesBase) - 1) * 100
			rows = append(rows, row)
		}

		// Verification-map shrink: regions whose hot code allocates scratch
		// objects the analysis proves non-escaping, built with summaries
		// nulled (blind) and attached.
		for _, name := range []string{"ScratchFilter", "MaterialLife"} {
			app := benchApp(b, name)
			opt := core.New(core.DefaultOptions())
			p, err := opt.Prepare(app)
			if err != nil {
				b.Fatal(err)
			}
			eff := p.Analysis.Effects
			al := eff.Alias
			eff.Alias = nil
			blind, _, err := verify.Build(opt.Dev, opt.Store, p.Snapshot, app.Prog, eff)
			if err != nil {
				b.Fatal(err)
			}
			eff.Alias = al
			aware, _, err := verify.Build(opt.Dev, opt.Store, p.Snapshot, app.Prog, eff)
			if err != nil {
				b.Fatal(err)
			}
			vmaps = append(vmaps, pts.BenchVmapRow{
				App:          name,
				Region:       app.Prog.Methods[p.Region.Root].Name,
				EntriesBlind: len(blind.Entries),
				EntriesAlias: len(aware.Entries),
				StoresElided: aware.StoresElided,
			})
		}

		traceParity = benchTraceParity(b, []string{"storeforward", "dse", "licm", "stackalloc"},
			func(eff *sa.Result) { eff.Alias = nil })
	}

	var proven, pairs, elided int
	var analysisMs float64
	for _, r := range rows {
		proven += r.Proven
		pairs += r.Pairs
		analysisMs += r.AnalysisMs
	}
	for _, v := range vmaps {
		elided += v.StoresElided
	}
	b.ReportMetric(float64(proven), "pairs-disambiguated")
	b.ReportMetric(float64(proven)/float64(pairs)*100, "%disambiguated")
	b.ReportMetric(float64(elided), "stores-elided")
	b.ReportMetric(analysisMs/float64(len(rows)), "analysis-ms/app")

	writeArtifact(b, "BENCH_alias.json", &pts.Bench{
		Apps:          rows,
		Benchmark:     "AliasAnalysis",
		KernelMinPct:  minKernelDisambiguationPct,
		PairsProven:   proven,
		PairsTotal:    pairs,
		SchemaVersion: pts.BenchSchemaVersion,
		StoresElided:  elided,
		TraceApp:      "Fibonacci.recv",
		TraceParity:   traceParity,
		TVRejected:    tvRejected,
		Vmap:          vmaps,
	})
	fmt.Printf("alias analysis: %d/%d same-kind pairs disambiguated; %d vmap stores elided; tv rejects %d; trace parity %v\n",
		proven, pairs, elided, tvRejected, traceParity)
	for _, r := range rows {
		fmt.Printf("  %-14s kernel=%-5v pairs %3d/%-3d (%4.0f%%) sites %d/%d local  cycles %+.2f%%  analysis %.1f ms\n",
			r.App, r.Kernel, r.Proven, r.Pairs, r.DisambiguationPct, r.NonEscaping, r.Sites, r.CycleDeltaPct, r.AnalysisMs)
	}
	for _, v := range vmaps {
		fmt.Printf("  vmap %-14s region=%s entries %d -> %d (elided %d)\n",
			v.App, v.Region, v.EntriesBlind, v.EntriesAlias, v.StoresElided)
	}
}

// tvBenchSrc is the miniature app the early-discard benchmark searches over
// (a hot kernel with array traffic, a virtual call, and global stores —
// enough surface for tvbreak to corrupt).
const tvBenchSrc = `
global float[] board;
global int ticks;

class Rule { func weight(int i) int { return i % 7; } }
class Fancy extends Rule { func weight(int i) int { return (i * 3) % 11; } }

func setup(int n) {
	board = new float[n];
	for (int i = 0; i < n; i = i + 1) { board[i] = itof(i % 13) * 0.5; }
}

func simulate(int rounds) int {
	Rule r = new Fancy();
	float acc = 0.0;
	for (int k = 0; k < rounds; k = k + 1) {
		for (int i = 0; i < len(board); i = i + 1) {
			acc = acc + board[i] * itof(r.weight(i));
		}
	}
	ticks = ticks + 1;
	return ftoi(acc);
}

func main() int {
	setup(400);
	int total = 0;
	for (int f = 0; f < 5; f = f + 1) {
		total = total + simulate(3);
		draw_frame(f);
	}
	print_int(total);
	return total;
}
`

// BenchmarkTranslationValidation measures the per-pass validator: compile
// overhead with the checker attached, verdict composition at each preset,
// and — with the deliberately miscompiling tvbreak pass dropped into the
// catalog — how many candidates a validated search discards statically and
// how many replay evaluations that saves. Results land in BENCH_tv.json
// (tv.Bench, checked by cmd/benchlint).
func BenchmarkTranslationValidation(b *testing.B) {
	appNames := []string{"FFT", "BubbleSort", "MaterialLife", "DroidFish"}

	var rows []tv.BenchRow
	var tvRejects, savedReplays int
	for i := 0; i < b.N; i++ {
		rows = nil
		for _, name := range appNames {
			app := benchApp(b, name)
			for _, preset := range []string{"O1", "O2", "O3"} {
				cfg, _ := lir.Preset(preset)
				start := time.Now()
				if _, err := lir.Compile(app.Prog, nil, cfg, nil, nil); err != nil {
					b.Fatal(err)
				}
				plainMs := time.Since(start).Seconds() * 1000
				chk := tv.NewChecker(tv.Options{Strict: true})
				cfg.Check = chk
				start = time.Now()
				if _, err := lir.Compile(app.Prog, nil, cfg, nil, nil); err != nil {
					b.Fatal(err)
				}
				checkedMs := time.Since(start).Seconds() * 1000
				row := tv.BenchRow{App: name, Preset: preset, PlainMs: plainMs, CheckedMs: checkedMs}
				row.Verified, row.Unverified, row.Rejected = chk.Counts()
				if n := len(chk.Verdicts); n > 0 {
					row.PerPassUs = (checkedMs - plainMs) * 1000 / float64(n)
				}
				if row.Rejected > 0 {
					b.Fatalf("%s %s: %d passes rejected on the stock pipeline", name, preset, row.Rejected)
				}
				rows = append(rows, row)
			}
		}

		// The early-discard claim, end to end: with tvbreak in the catalog a
		// validated search must stop the miscompiled candidates at compile
		// time, saving their replay evaluations.
		cleanup := lir.RegisterForTesting(tv.MiscompilePass())
		prog, err := minic.CompileSource("miniapp", tvBenchSrc)
		if err != nil {
			cleanup()
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.GA.Population = 8
		opts.GA.Generations = 3
		opts.GA.HillClimbBudget = 6
		opts.Seed = 10
		opts.TVCheck = true
		// Shrink the pass pool to tvbreak and two sound passes, so the
		// search samples tvbreak by construction, whatever the seed.
		for _, n := range lir.PassNames() {
			if n != tv.MiscompilePassName && n != "constfold" && n != "dce" {
				opts.GA.ExcludePasses = append(opts.GA.ExcludePasses, n)
			}
		}
		rep, err := core.New(opts).Optimize(&core.App{Name: "miniapp", Prog: prog})
		cleanup()
		if err != nil {
			b.Fatal(err)
		}
		tvRejects = rep.SearchStats.TVRejects
		savedReplays = rep.SearchStats.TVSavedReplayEvals
		if savedReplays < 1 {
			b.Fatal("validated search saved no replay evaluations")
		}
	}

	var plain, checked float64
	var verified, unverified int
	for _, r := range rows {
		plain += r.PlainMs
		checked += r.CheckedMs
		verified += r.Verified
		unverified += r.Unverified
	}
	b.ReportMetric((checked-plain)/plain*100, "%compile-overhead")
	b.ReportMetric(float64(tvRejects), "tv-rejects")
	b.ReportMetric(float64(savedReplays), "replay-evals-saved")

	writeArtifact(b, "BENCH_tv.json", &tv.Bench{
		Benchmark:        "TranslationValidation",
		CompileCheckedMs: checked,
		CompileMs:        plain,
		Presets:          rows,
		ReplayEvalsSaved: savedReplays,
		SchemaVersion:    tv.BenchSchemaVersion,
		TVRejects:        tvRejects,
		Unverified:       unverified,
		Verified:         verified,
	})
	fmt.Printf("translation validation: %.0f%% compile overhead; %d/%d passes verified; %d candidates rejected statically, %d replays saved\n",
		(checked-plain)/plain*100, verified, verified+unverified, tvRejects, savedReplays)
}

// BenchmarkSearchParallel measures the replay throughput engine: the same
// seeded GA search swept across worker counts on warm replay workers. Every
// cell of the sweep must produce a byte-identical decision trace (the
// determinism guarantee); only the wall clock may differ. Rows with
// evals/sec per cell land in BENCH_parallel.json (core.Bench, checked and
// regression-gated by cmd/benchlint), alongside the restore/clone/reset
// histograms that show how the warm path amortizes the snapshot restore.
//
// The subject is Fibonacci.recv. Its search is compile-bound, not
// restore-bound: most candidates replay in about a millisecond, but lir
// compiles dominate evaluation time, and a few pass pipelines of the late
// generations compile for tens to hundreds of milliseconds. So the sweep
// measures how well the worker pool spreads uneven compile work; see README
// "Replay throughput".
const searchParallelApp = "Fibonacci.recv"

func BenchmarkSearchParallel(b *testing.B) {
	scale := exp.Quick()
	spec, _ := apps.ByName(searchParallelApp)
	app, err := apps.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	cpus := runtime.NumCPU()
	sweep := []int{1, 2, 4}
	if cpus > 4 {
		sweep = append(sweep, cpus)
	}

	var rows []core.BenchRow
	var res *ga.Result
	var col *obs.Collect
	var reg *obs.Registry
	for i := 0; i < b.N; i++ {
		col = &obs.Collect{}
		sc := obs.New(col)
		reg = sc.Registry()
		rows = rows[:0]
		refTrace := ""
		for _, w := range sweep {
			// Each cell prepares its own pipeline, so every search starts
			// with an empty image cache and replays what the serial one
			// does. The replay scope rides the store from Prepare on, so it
			// records the two template builds prepare makes as well as
			// every clone and reset of the sweep; the last (all-cores) run
			// also carries the span scope so the artifact keeps its
			// per-generation latency rows.
			copts := core.DefaultOptions()
			copts.Seed = 1
			opt := core.New(copts)
			opt.Store.Obs = sc
			p, err := opt.Prepare(app)
			if err != nil {
				b.Fatal(err)
			}
			o := scale.GA
			o.BaselineAndroidMs = p.AndroidEval.MeanMs
			o.BaselineO3Ms = p.O3Eval.MeanMs
			o.Parallelism = w
			instrumented := w == sweep[len(sweep)-1]
			if instrumented {
				o.Obs = sc.Start("search")
			}
			start := time.Now()
			r := ga.Search(rand.New(rand.NewSource(1)), p, o)
			ms := time.Since(start).Seconds() * 1000
			if instrumented {
				o.Obs.End()
				res = r
			}
			trace := r.DecisionTrace()
			if refTrace == "" {
				refTrace = trace
			} else if trace != refTrace {
				b.Fatalf("search diverged at workers=%d", w)
			}
			rows = append(rows, core.BenchRow{
				Workers:     w,
				Ms:          ms,
				Evaluations: r.Stats.Evaluations,
				EvalsPerSec: float64(r.Stats.Evaluations) / (ms / 1000),
			})
		}
	}
	maxW := sweep[len(sweep)-1]
	serial, par := rows[0], rows[len(rows)-1]
	b.ReportMetric(serial.Ms, "serial-ms")
	b.ReportMetric(par.Ms, "parallel-ms")
	b.ReportMetric(par.EvalsPerSec, "evals/sec")

	var gens []core.BenchGeneration
	for _, sd := range col.ByName("ga.generation") {
		gens = append(gens, core.BenchGeneration{
			Gen:         int(obs.Num(sd.Attrs, "gen")),
			Evals:       int(obs.Num(sd.Attrs, "evals")),
			CacheHits:   int(obs.Num(sd.Attrs, "cache_hits")),
			EvalP50Ms:   obs.Num(sd.Attrs, "eval_p50_ms"),
			EvalP99Ms:   obs.Num(sd.Attrs, "eval_p99_ms"),
			BestSpeedup: obs.Num(sd.Attrs, "best_speedup"),
		})
	}
	evalHist := reg.Histogram("ga.eval_ms")
	restoreHist := reg.Histogram("replay.restore_ms")
	cloneHist := reg.Histogram("replay.clone_ms")
	resetHist := reg.Histogram("replay.reset_ms")

	writeArtifact(b, "BENCH_parallel.json", &core.Bench{
		App:            searchParallelApp,
		Benchmark:      "SearchParallel",
		CacheHits:      res.Stats.CacheHits,
		CloneP50Ms:     cloneHist.Quantile(0.50),
		Considered:     res.Stats.Considered,
		EvalP50Ms:      evalHist.Quantile(0.50),
		EvalP99Ms:      evalHist.Quantile(0.99),
		Evaluations:    res.Stats.Evaluations,
		Generations:    gens,
		MaxWorkers:     maxW,
		ResetP50Ms:     resetHist.Quantile(0.50),
		RestoreP50Ms:   restoreHist.Quantile(0.50),
		Rows:           rows,
		SavedReplayMs:  res.Stats.SavedReplayMs,
		Scale:          scale.Name,
		SchemaVersion:  core.BenchSchemaVersion,
		TemplateBuilds: reg.Counter("replay.template_builds").Value(),
		WarmRuns:       reg.Counter("replay.warm_runs").Value(),
	})
	fmt.Printf("search sweep (workers):\n")
	for _, r := range rows {
		fmt.Printf("  workers=%-2d %8.0f ms  %6.1f evals/sec\n", r.Workers, r.Ms, r.EvalsPerSec)
	}
	fmt.Printf("%.2fx at %d workers; restore p50 %.3f ms vs clone p50 %.3f ms, reset p50 %.3f ms\n",
		serial.Ms/par.Ms, maxW, restoreHist.Quantile(0.5), cloneHist.Quantile(0.5), resetHist.Quantile(0.5))
}

// BenchmarkSnapshotStore measures the content-addressed snapshot store
// (DESIGN.md §10) against the version-1 gob+gzip blob on a multi-capture
// store — the §3.2 storage budget next to Fig. 11 — plus save/load/
// materialize latency and the corruption-recovery rate of the record
// format. Results land in BENCH_store.json (castore.Bench, checked by
// cmd/benchlint).
func BenchmarkSnapshotStore(b *testing.B) {
	const captures = 4
	store, err := benchCaptureStore(captures)
	if err != nil {
		b.Fatal(err)
	}
	var rawBytes int64
	for _, sn := range store.Snapshots {
		rawBytes += int64(len(sn.Pages)) * 4096
	}
	rawBytes += int64(len(store.BootPages)) * 4096

	dir := b.TempDir()
	casPath := dir + "/store.cas"

	var saveMs, loadMs, matMs float64
	var legacyBytes, casBytes int64
	var st capture.SaveStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		os.Remove(casPath)
		if legacyBytes, err = legacyBlobBytes(store); err != nil {
			b.Fatal(err)
		}

		t0 := time.Now()
		st, err = store.Persist(casPath)
		if err != nil {
			b.Fatal(err)
		}
		saveMs = time.Since(t0).Seconds() * 1000
		casBytes, _ = capture.DiskSize(casPath)

		t0 = time.Now()
		loaded, err := capture.Load(casPath, nil)
		if err != nil {
			b.Fatal(err)
		}
		loadMs = time.Since(t0).Seconds() * 1000
		t0 = time.Now()
		for _, sn := range loaded.Snapshots {
			if err := sn.EnsurePages(); err != nil {
				b.Fatal(err)
			}
		}
		if err := loaded.EnsureBoot(); err != nil {
			b.Fatal(err)
		}
		matMs = time.Since(t0).Seconds() * 1000
		if len(loaded.Snapshots) != captures {
			b.Fatalf("%d snapshots after load", len(loaded.Snapshots))
		}
	}
	b.StopTimer()

	if casBytes >= legacyBytes {
		b.Fatalf("castore (%d B) did not beat the legacy blob (%d B)", casBytes, legacyBytes)
	}

	// Corruption trials: flip one bit past the header at a seeded offset and
	// reload. Recovered means the load returns (no crash), at least one
	// snapshot survives, and every surviving snapshot materializes with its
	// checksums intact.
	const trials = 20
	pristine, err := os.ReadFile(casPath)
	if err != nil {
		b.Fatal(err)
	}
	trialPath := dir + "/trial.cas"
	rng := rand.New(rand.NewSource(1))
	recovered := 0
	for i := 0; i < trials; i++ {
		data := append([]byte(nil), pristine...)
		off := 5 + rng.Intn(len(data)-5)
		data[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(trialPath, data, 0o644); err != nil {
			b.Fatal(err)
		}
		loaded, err := capture.Load(trialPath, nil)
		if err != nil {
			continue
		}
		ok := len(loaded.Snapshots) > 0
		for _, sn := range loaded.Snapshots {
			if sn.EnsurePages() != nil {
				ok = false
			}
		}
		if ok {
			recovered++
		}
	}
	recoveryRate := float64(recovered) / float64(trials)

	// Torn-tail trial: cut the file mid-record; the load must roll back to a
	// consistent committed state (here: the index fallback still presents
	// every intact manifest).
	torn := append([]byte(nil), pristine[:len(pristine)-7]...)
	if err := os.WriteFile(trialPath, torn, 0o644); err != nil {
		b.Fatal(err)
	}
	tornRecovered := false
	if loaded, err := capture.Load(trialPath, nil); err == nil && len(loaded.Snapshots) == captures {
		tornRecovered = true
		for _, sn := range loaded.Snapshots {
			if sn.EnsurePages() != nil {
				tornRecovered = false
			}
		}
	}

	b.ReportMetric(float64(legacyBytes)/float64(captures), "legacy-B/capture")
	b.ReportMetric(float64(casBytes)/float64(captures), "castore-B/capture")
	b.ReportMetric(st.DedupRatio(), "dedup-x")
	b.ReportMetric(recoveryRate, "recovery-rate")

	writeArtifact(b, "BENCH_store.json", &castore.Bench{
		Benchmark:         "SnapshotStore",
		Captures:          captures,
		CastoreBytes:      casBytes,
		ChunksReused:      st.ChunksReused,
		ChunksUnique:      st.ChunksWritten,
		CorruptionTrials:  trials,
		DedupRatio:        st.DedupRatio(),
		LegacyBytes:       legacyBytes,
		LoadMs:            loadMs,
		MaterializeMs:     matMs,
		RawPageBytes:      rawBytes,
		RecoveryRate:      recoveryRate,
		SaveMs:            saveMs,
		SchemaVersion:     castore.BenchSchemaVersion,
		TornTailRecovered: tornRecovered,
	})
	fmt.Printf("snapshot store: %d captures, raw %.2f MB; legacy %.2f MB -> castore %.2f MB (%.2fx dedup); save %.1f ms, load %.1f ms, materialize %.1f ms; corruption recovery %d/%d, torn tail recovered: %v\n",
		captures, float64(rawBytes)/(1<<20), float64(legacyBytes)/(1<<20), float64(casBytes)/(1<<20),
		st.DedupRatio(), saveMs, loadMs, matMs, recovered, trials, tornRecovered)
}

// storeOnDisk is the version-1 store format that castore replaced: one
// gob+gzip blob. Nothing reads it any more; BenchmarkSnapshotStore encodes
// it only to size the legacy_bytes baseline of BENCH_store.json.
type storeOnDisk struct {
	BootPages map[mem.Addr][]byte
	Snapshots []*capture.Snapshot
}

// legacyBlobBytes is the size of store encoded as a version-1 blob.
func legacyBlobBytes(store *capture.Store) (int64, error) {
	var n countingWriter
	zw := gzip.NewWriter(&n)
	disk := storeOnDisk{BootPages: store.BootPages, Snapshots: store.Snapshots}
	if err := gob.NewEncoder(zw).Encode(&disk); err != nil {
		return 0, err
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	return int64(n), nil
}

// countingWriter counts the bytes written to it and discards them.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// benchCaptureStore captures n snapshots of one app's hot region with
// different arguments into a single store — the multi-capture shape where
// cross-snapshot dedup matters (the region touches mostly the same pages
// every entry).
func benchCaptureStore(n int) (*capture.Store, error) {
	prog, err := minic.CompileSource("bench", `
global int[] data;
func setup() { data = new int[65536]; for (int i = 0; i < len(data); i = i + 1) { data[i] = i * 2654435761; } }
func hot(int n) int {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) { s = s + data[i % len(data)]; }
	data[0] = s;
	return s;
}
func main() int { setup(); return hot(100); }`)
	if err != nil {
		return nil, err
	}
	proc := rt.NewProcess(prog, rt.Config{})
	env := interp.NewEnv(proc)
	env.MaxCycles = 10_000_000_000
	setupID, _ := prog.MethodByName("setup")
	hotID, _ := prog.MethodByName("hot")
	if _, err := env.Call(setupID, nil); err != nil {
		return nil, err
	}
	store := capture.NewStore()
	dev := device.New(1)
	for i := 0; i < n; i++ {
		arg := uint64(5000 + 100*i)
		if _, err := capture.Capture(proc, dev, store, hotID, []uint64{arg}, 0, func() error {
			_, err := env.Call(hotID, []uint64{arg})
			return err
		}); err != nil {
			return nil, err
		}
	}
	return store, nil
}
