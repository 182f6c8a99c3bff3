// Command experiments regenerates the paper's tables and figures (§5).
//
// Usage:
//
//	experiments [-scale quick|full] [-fig all|table1|1|2|3|7|8|9|10|11|schedule|ablations] [-seed N] [-apps a,b,c] [-parallel N]
//	experiments -fig 7 -trace fig7.jsonl -metrics -progress
//
// The full scale mirrors §4 exactly (11 generations x 50 genomes, 100 random
// sequences, 10^4 online evaluations) and takes several minutes for the
// Figure 7/9 suite; quick shrinks budgets while preserving shapes.
//
// Every run reports, after each figure, its wall-clock duration and the
// pipeline work it performed (evaluations, cache hits, replays, captures)
// out of the observability registry. -trace/-metrics/-progress mirror the
// replayopt flags (README.md "Observability").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"replayopt/internal/exp"
	"replayopt/internal/obs"
)

func main() {
	scaleName := flag.String("scale", "quick", "experiment budget: quick or full")
	fig := flag.String("fig", "all", "which result to regenerate: all, table1, 1, 2, 3, 7, 8, 9, 10, 11, schedule, ablations")
	seed := flag.Int64("seed", 1, "seed for every stochastic component")
	appsFlag := flag.String("apps", "", "comma-separated app subset (default: all 21)")
	parallel := flag.Int("parallel", 0, "worker count for per-app pipelines and candidate evaluation (0 = all cores); results are identical at any value")
	tracePath := flag.String("trace", "", "write a JSONL span trace of every pipeline run to this file")
	metrics := flag.Bool("metrics", false, "dump the full metrics registry after all figures")
	progress := flag.Bool("progress", false, "print live per-generation GA progress lines (stderr)")
	tvcheck := flag.Bool("tvcheck", false,
		"validate every pass application during candidate compiles; provable miscompiles become tv-reject discards before any replay")
	flag.Parse()

	var scale exp.Scale
	switch *scaleName {
	case "quick":
		scale = exp.Quick()
	case "full":
		scale = exp.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *appsFlag != "" {
		scale.Apps = strings.Split(*appsFlag, ",")
	}
	scale.Workers = *parallel
	scale.GA.Parallelism = *parallel
	scale.TVCheck = *tvcheck

	// The experiments always carry a scope so the per-figure work summary
	// has real counters; sinks are attached only on request. Results are
	// unaffected (the scope is purely observational).
	var sinks []obs.SpanSink
	var traceFile *obs.TraceFile
	if *tracePath != "" {
		var err error
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
	scope := obs.New(sinks...)
	scale.Obs = scope

	want := func(name string) bool { return *fig == "all" || *fig == name }

	// mark prints one work-summary line per figure: its wall-clock time and
	// the registry deltas the figure produced.
	last := scope.Registry().Snapshot()
	figStart := time.Now()
	mark := func(label string) {
		snap := scope.Registry().Snapshot()
		d := func(key string) float64 { return snap[key] - last[key] }
		fmt.Printf("[fig %s] %.1fs — %.0f evals (%.0f cache hits), %.0f replays, %.0f captures, %.1f MB persisted\n",
			label, time.Since(figStart).Seconds(),
			d("ga.evaluations"), d("ga.cache_hits"), d("replay.runs"), d("capture.captures"),
			d("capture.persisted_bytes")/(1<<20))
		last = snap
		figStart = time.Now()
	}
	emit := func(label string, t *exp.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.String())
		mark(label)
	}

	start := time.Now()
	if want("table1") {
		fmt.Println(exp.Table1().String())
		mark("table1")
	}
	if want("1") {
		_, t, err := exp.Figure1(scale, *seed)
		emit("1", t, err)
	}
	if want("2") {
		_, t, err := exp.Figure2(scale, *seed)
		emit("2", t, err)
	}
	if want("3") {
		_, t, err := exp.Figure3(scale, *seed)
		emit("3", t, err)
	}
	if want("7") || want("9") || want("schedule") {
		res, t, err := exp.Figure7(scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if want("7") {
			fmt.Println(t.String())
		}
		if want("9") {
			_, t9 := exp.Figure9(res)
			fmt.Println(t9.String())
		}
		if want("schedule") {
			t, err := exp.ScheduleTable(res, scale, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t.String())
		}
		mark("7")
	}
	if want("8") {
		_, t, err := exp.Figure8(scale, *seed)
		emit("8", t, err)
	}
	if want("10") {
		_, t, err := exp.Figure10(scale, *seed)
		emit("10", t, err)
	}
	if want("11") {
		_, t, err := exp.Figure11(scale, *seed)
		emit("11", t, err)
	}
	if want("ablations") {
		run := func(t *exp.Table, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(t.String())
		}
		run(exp.AblationCoW(scale, *seed))
		run(exp.AblationFullSnapshot(scale, *seed))
		run(exp.AblationGCCheckElim(*seed))
		run(exp.AblationDevirt(*seed, "DroidFish"))
		run(exp.AblationRandomSearch(scale, *seed, "FFT"))
		run(exp.AblationNoVerify(scale, *seed, "FFT"))
		run(exp.AblationCrossValidate(scale, *seed))
		run(exp.AblationTTestFitness(*seed))
		mark("ablations")
	}

	if *metrics {
		fmt.Println("== metrics ==")
		scope.Registry().WriteText(os.Stdout)
		fmt.Println()
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s\n", traceFile.Count(), *tracePath)
	}
	fmt.Printf("done in %.1fs (scale=%s)\n", time.Since(start).Seconds(), scale.Name)
}
