// Command replayopt runs the full developer- and user-transparent
// optimization pipeline (Fig. 6) on one of the evaluation applications:
// profile online, detect the hot region, capture its input state, build the
// verification map by interpreted replay, search the optimization space with
// the GA, and report the installed winner's speedups.
//
// Usage:
//
//	replayopt -app FFT [-seed 1] [-pop 50] [-gens 11] [-parallel N] [-crossvalidate 3]
//	replayopt -app FFT -trace out.jsonl -metrics -progress
//	replayopt -app FFT -rtrace rewrites.jsonl -lock FFT.lock.json
//	replayopt -app FFT -replay-lock FFT.lock.json
//	replayopt -app FFT -store captures.cas
//	replayopt -list
//
// -rtrace records the winning genome's rewrite trace — one JSONL entry per
// pass application with hashes, params, notes, and diffs — replayable and
// bisectable with cmd/rtrace. -lock persists the winner's policy lock (the
// pinned decision sequence). -replay-lock skips the GA search entirely:
// it loads a saved lock, audits it for drift against the current compiler,
// compiles the region under the locked configuration, and measures it by
// replay — the ShareJIT-style reuse path.
//
// -store persists the capture store to the given file after the run (the
// content-addressed, deduplicated format of DESIGN.md §10; inspect it with
// storelint). If the file already holds captures from earlier runs, only
// unseen pages are appended and the earlier captures stay live alongside
// this run's.
//
// Observability (README.md "Observability"): -trace writes every pipeline
// span as one JSON object per line, -metrics dumps the counter/histogram
// registry after the report, -progress prints a live per-generation line
// during the search. All three are purely observational — with them off the
// output and the Report are byte-identical to a build without them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/lir/rtrace"
	"replayopt/internal/obs"
	"replayopt/internal/profile"
)

// replayLockedPolicy is the -replay-lock path: no search, just apply a saved
// winning decision sequence. Static drift (the locked config no longer
// rebuilds) is fatal; dynamic drift (a decision no longer fires, the image
// changed) is reported but the measurement still runs so the user sees what
// the drifted policy is worth today.
func replayLockedPolicy(opt *core.Optimizer, app *core.App, appName, path string) {
	l, err := rtrace.ReadLockFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if l.App != "" && l.App != appName {
		fmt.Fprintf(os.Stderr, "warning: lock was cut for app %q, applying to %q\n", l.App, appName)
	}
	fmt.Printf("replaying locked policy %s on %s (%d passes, %d firing at lock time)\n",
		path, appName, len(l.Passes), len(l.Fired))
	rep, err := opt.InstallLocked(app, l)
	for _, d := range rep.StaticDrift {
		fmt.Fprintf(os.Stderr, "lock drift [%s]: %s\n", d.Kind, d.Detail)
	}
	for _, d := range rep.DynamicDrift {
		fmt.Printf("lock drift [%s]: %s\n", d.Kind, d.Detail)
	}
	if err != nil {
		switch {
		case errors.Is(err, core.ErrLockDrift):
			fmt.Fprintln(os.Stderr, "the locked configuration no longer rebuilds against this compiler")
		case errors.Is(err, core.ErrLockFailedReplay):
			fmt.Fprintf(os.Stderr, "locked configuration failed replay: %s\n", rep.Eval.Outcome)
		default:
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
	fmt.Printf("region replay means: Android %.4f ms | -O3 %.4f ms | locked %.4f ms (%.2fx over Android)\n",
		rep.AndroidMeanMs, rep.O3MeanMs, rep.Eval.MeanMs, rep.Speedup())
}

func main() {
	appName := flag.String("app", "", "application to optimize (see -list)")
	list := flag.Bool("list", false, "list the 21 evaluation applications")
	seed := flag.Int64("seed", 1, "seed for all stochastic components")
	pop := flag.Int("pop", 50, "GA population size")
	gens := flag.Int("gens", 11, "GA generations")
	parallel := flag.Int("parallel", 0,
		"candidate-evaluation workers (0 = all cores); the search result is identical at any value")
	crossval := flag.Int("crossvalidate", 0,
		"also cross-validate the winner on N held-out captured inputs (DESIGN.md §7)")
	tracePath := flag.String("trace", "", "write a JSONL span trace of the whole pipeline to this file")
	metrics := flag.Bool("metrics", false, "dump the metrics registry (counters, gauges, histograms) after the report")
	progress := flag.Bool("progress", false, "print a live per-generation progress line during the search (stderr)")
	tvcheck := flag.Bool("tvcheck", false,
		"validate every pass application during candidate compiles; provable miscompiles are discarded before any replay")
	storePath := flag.String("store", "",
		"persist the capture store to this file after the run (content-addressed; appends only unseen pages)")
	rtracePath := flag.String("rtrace", "",
		"write the winning genome's rewrite trace (JSONL; replay/bisect it with cmd/rtrace) to this file")
	lockPath := flag.String("lock", "",
		"write the winner's policy lock (JSON; audit it with cmd/rtrace lock-check) to this file")
	replayLock := flag.String("replay-lock", "",
		"skip the search: load this policy lock, audit it for drift, and measure the locked configuration by replay")
	flag.Parse()

	if *list {
		for _, s := range apps.All() {
			fmt.Printf("%-14s %-22s %s\n", s.Type, s.Name, s.Desc)
		}
		return
	}
	spec, ok := apps.ByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown app %q (use -list)\n", *appName)
		os.Exit(2)
	}
	app, err := apps.Build(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opts := core.DefaultOptions()
	opts.Seed = *seed
	opts.GA.Population = *pop
	opts.GA.Generations = *gens
	opts.GA.Parallelism = *parallel
	opts.TVCheck = *tvcheck

	// Build the observability scope only when asked for: with every flag
	// off opts.Obs stays nil and the run is exactly the uninstrumented one.
	var scope *obs.Scope
	var traceFile *obs.TraceFile
	if *tracePath != "" || *metrics || *progress {
		var sinks []obs.SpanSink
		if *tracePath != "" {
			traceFile, err = obs.CreateTraceFile(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			sinks = append(sinks, traceFile)
		}
		if *progress {
			sinks = append(sinks, obs.NewProgress(os.Stderr))
		}
		scope = obs.New(sinks...)
	}
	opts.Obs = scope

	var rtraceJSONL *obs.JSONLWriter
	var rtraceFile *os.File
	if *rtracePath != "" {
		rtraceFile, err = os.Create(*rtracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rtraceJSONL = obs.NewJSONLWriter(rtraceFile)
		opts.RTrace = rtraceJSONL
	}
	opt := core.New(opts)

	if *replayLock != "" {
		replayLockedPolicy(opt, app, spec.Name, *replayLock)
		return
	}

	fmt.Printf("optimizing %s (%s: %s)\n", spec.Name, spec.Type, spec.Desc)
	var rep *core.Report
	var cv *core.CrossValidation
	if *crossval > 0 {
		rep, cv, err = opt.OptimizeMulti(app, *crossval)
	} else {
		rep, err = opt.Optimize(app)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	prog := app.Prog
	fmt.Printf("\nhot region: %s (%d methods, %d profile samples)\n",
		prog.Methods[rep.Region.Root].Name, len(rep.Region.Methods), rep.Region.EstimatedSamples)
	fmt.Printf("code breakdown: compiled %.0f%%, cold %.0f%%, JNI %.0f%%, unreplayable %.0f%%, uncompilable %.0f%%\n",
		rep.Breakdown[profile.CatCompiled]*100, rep.Breakdown[profile.CatCold]*100,
		rep.Breakdown[profile.CatJNI]*100, rep.Breakdown[profile.CatUnreplayable]*100,
		rep.Breakdown[profile.CatUncompilable]*100)
	fmt.Printf("capture: %.1f ms online (fork %.1f + prep %.1f + faults/CoW %.1f); %.2f MB program-specific, %.1f MB boot-common\n",
		rep.Capture.TotalMs(), rep.Capture.ForkMs, rep.Capture.PrepMs, rep.Capture.FaultCoWMs,
		float64(rep.Capture.ProgramBytes())/(1<<20), float64(rep.Capture.CommonBytes())/(1<<20))
	fmt.Printf("verification map: %d locations\n", rep.VerifyMapSize)
	fmt.Printf("\nsearch: %d genomes evaluated, halt: %s\n", len(rep.Search.Trace), rep.Search.Halt)
	fmt.Printf("evaluation cache: %d of %d measurements served from cache (%.1f s of replay skipped)\n",
		rep.SearchStats.CacheHits, rep.SearchStats.Considered, rep.SearchStats.SavedReplayMs/1000)
	if *tvcheck {
		fmt.Printf("translation validation: %d candidates rejected statically, %d replay evaluations saved\n",
			rep.SearchStats.TVRejects, rep.SearchStats.TVSavedReplayEvals)
	}
	fmt.Printf("best genome: %s\n", rep.Search.Best)
	fmt.Printf("\nregion replay means: Android %.4f ms | -O3 %.4f ms | GA %.4f ms (%.2fx over Android)\n",
		rep.AndroidRegionMs, rep.O3RegionMs, rep.GARegionMs, rep.RegionSpeedupGA)
	fmt.Printf("whole-program speedup (online, outside replay): -O3 %.2fx | GA %.2fx\n",
		rep.SpeedupO3, rep.SpeedupGA)
	if cv != nil && cv.Checked > 0 {
		fmt.Printf("cross-validation: %d/%d held-out inputs verified, worst speedup %.2fx\n",
			cv.Passed, cv.Checked, cv.MinSpeedup())
	}
	if rep.KeptBaseline {
		fmt.Println("note: the baseline binary was kept (the search winner did not qualify)")
	}

	if rtraceFile != nil {
		name := rtraceFile.Name()
		if err := rtraceJSONL.Err(); err == nil {
			err = rtraceFile.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nrewrite trace: %d records written to %s (replay with: rtrace replay %s)\n",
			rtraceJSONL.Count(), name, name)
	}
	if *lockPath != "" {
		if err := rtrace.WriteLockFile(*lockPath, rep.Lock); err != nil {
			fmt.Fprintf(os.Stderr, "lock: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("policy lock: %d passes (%d firing) pinned to %s\n",
			len(rep.Lock.Passes), len(rep.Lock.Fired), *lockPath)
	}

	if *storePath != "" {
		st, err := opt.PersistStore(*storePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nstore: %d bytes appended to %s (%d chunks new, %d reused; %.2fx dedup)\n",
			st.AppendedBytes, *storePath, st.ChunksWritten, st.ChunksReused, st.DedupRatio())
	}

	if *metrics {
		fmt.Println("\n== metrics ==")
		scope.Registry().WriteText(os.Stdout)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace: %d spans written to %s\n", traceFile.Count(), *tracePath)
	}
}
