// Command benchlint validates and regression-checks the BENCH_*.json
// artifacts. It dispatches on the document's "benchmark" field to the type
// that declares the artifact in its owning package, strictly decodes the
// document into it, and runs its Check:
//
//	SearchParallel         core.Bench     BENCH_parallel.json (DESIGN.md §11 sweep)
//	EffectAnalysis         sa.Bench       BENCH_sa.json
//	RangeAnalysis          vra.Bench      BENCH_range.json
//	AliasAnalysis          pts.Bench      BENCH_alias.json
//	TranslationValidation  tv.Bench       BENCH_tv.json
//	SnapshotStore          castore.Bench  BENCH_store.json
//	Fleet                  fleet.Bench    BENCH_fleet.json (DESIGN.md §15 sweep)
//
// Usage:
//
//	benchlint BENCH_parallel.json                    # stat: summary + schema check
//	benchlint -compare base.json [-tolerance 0.2] BENCH_parallel.json
//	benchlint -compare base_alias.json BENCH_alias.json
//	benchlint -compare base_fleet.json BENCH_fleet.json
//
// -compare reads a baseline artifact of the same benchmark and fails (exit
// 1) when the new artifact regresses beyond the tolerance. SearchParallel,
// AliasAnalysis and Fleet artifacts can be compared. For SearchParallel the
// gated quantity is each sweep cell's evals/sec against the cell of the
// same worker count; cells present in the baseline must still exist in the
// new artifact, and new cells (e.g. a wider sweep on a bigger runner) are
// allowed. -compare-normalized divides every cell by its run's serial cell
// first, so machine-speed differences cancel and only parallel efficiency
// is compared. For AliasAnalysis the gated quantities are
// machine-independent, so no normalization applies: each baseline app's
// disambiguation rate and each vmap subject's entry shrink must hold. For
// Fleet the cache hit ratio and uploads/sec must hold.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"replayopt/internal/capture/castore"
	"replayopt/internal/core"
	"replayopt/internal/fleet"
	"replayopt/internal/lir/tv"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
	"replayopt/internal/schema"
)

// artifacts maps each benchmark name to a new value of the type that
// declares its artifact.
var artifacts = map[string]func() schema.Checker{
	"SearchParallel":        func() schema.Checker { return new(core.Bench) },
	"EffectAnalysis":        func() schema.Checker { return new(sa.Bench) },
	"RangeAnalysis":         func() schema.Checker { return new(vra.Bench) },
	"AliasAnalysis":         func() schema.Checker { return new(pts.Bench) },
	"TranslationValidation": func() schema.Checker { return new(tv.Bench) },
	"SnapshotStore":         func() schema.Checker { return new(castore.Bench) },
	"Fleet":                 func() schema.Checker { return new(fleet.Bench) },
}

// parse strictly decodes one artifact into the type its benchmark names.
func parse(data []byte) (schema.Checker, error) {
	var probe struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	newDoc, ok := artifacts[probe.Benchmark]
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", probe.Benchmark)
	}
	doc := newDoc()
	return doc, schema.Decode(data, doc)
}

func load(path string) (schema.Checker, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// errIncomparable reports a -compare of two artifacts that have no
// regression gate in common.
var errIncomparable = errors.New("-compare needs two artifacts of the same benchmark (SearchParallel, AliasAnalysis, or Fleet)")

// compareDocs gates next on base with the comparison their benchmark has.
func compareDocs(base, next schema.Checker, tolerance float64, normalize bool) error {
	switch b := base.(type) {
	case *core.Bench:
		if n, ok := next.(*core.Bench); ok {
			return compare(b, n, tolerance, normalize)
		}
	case *pts.Bench:
		if n, ok := next.(*pts.Bench); ok {
			return compareAlias(b, n, tolerance)
		}
	case *fleet.Bench:
		if n, ok := next.(*fleet.Bench); ok {
			return compareFleet(b, n, tolerance)
		}
	}
	return errIncomparable
}

// compareAlias gates a new AliasAnalysis artifact on a baseline: every
// baseline app must keep its disambiguation rate and every baseline vmap
// subject its entry shrink, within the tolerance. The quantities are counts
// of static proofs, not timings, so cross-machine runs compare directly.
func compareAlias(base, next *pts.Bench, tolerance float64) error {
	nextApp := map[string]pts.BenchRow{}
	for _, r := range next.Apps {
		nextApp[r.App] = r
	}
	nextVmap := map[string]pts.BenchVmapRow{}
	for _, v := range next.Vmap {
		nextVmap[v.App] = v
	}
	var failed bool
	for _, br := range base.Apps {
		nr, ok := nextApp[br.App]
		if !ok {
			fmt.Printf("MISSING   %-14s (baseline %.0f%% disambiguated)\n", br.App, br.DisambiguationPct)
			failed = true
			continue
		}
		status := "ok"
		if nr.DisambiguationPct < br.DisambiguationPct*(1-tolerance) {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-9s %-14s %5.1f%% -> %5.1f%% disambiguated\n",
			status, br.App, br.DisambiguationPct, nr.DisambiguationPct)
	}
	for _, bv := range base.Vmap {
		nv, ok := nextVmap[bv.App]
		if !ok {
			fmt.Printf("MISSING   vmap %-14s (baseline shrink %d)\n", bv.App, bv.EntriesBlind-bv.EntriesAlias)
			failed = true
			continue
		}
		baseShrink := bv.EntriesBlind - bv.EntriesAlias
		nextShrink := nv.EntriesBlind - nv.EntriesAlias
		status := "ok"
		if float64(nextShrink) < float64(baseShrink)*(1-tolerance) {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-9s vmap %-14s shrink %4d -> %4d entries\n", status, bv.App, baseShrink, nextShrink)
	}
	if failed {
		return fmt.Errorf("alias artifact regressed beyond %.0f%% tolerance", tolerance*100)
	}
	return nil
}

// compareFleet gates a new Fleet artifact on a baseline: the cache hit ratio
// and overall uploads/sec must each hold at least (1 - tolerance) of the
// baseline. Hit ratio is machine-independent; uploads/sec is a same-machine
// gate like the SearchParallel cells.
func compareFleet(base, next *fleet.Bench, tolerance float64) error {
	var failed bool
	check := func(name string, b, n float64) {
		status := "ok"
		if n < b*(1-tolerance) {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-9s %-16s %10.3f -> %10.3f\n", status, name, b, n)
	}
	check("cache_hit_ratio", base.CacheHitRatio, next.CacheHitRatio)
	check("uploads_per_sec", base.UploadsPerSec, next.UploadsPerSec)
	if failed {
		return fmt.Errorf("fleet artifact regressed beyond %.0f%% tolerance", tolerance*100)
	}
	return nil
}

func cells(a *core.Bench) map[int]core.BenchRow {
	m := make(map[int]core.BenchRow, len(a.Rows))
	for _, r := range a.Rows {
		m[r.Workers] = r
	}
	return m
}

// compare gates the new artifact on the baseline: every baseline cell must
// still exist and hold at least (1 - tolerance) of its evals/sec. With
// normalize set, both sides are divided by their own serial cell first.
func compare(base, next *core.Bench, tolerance float64, normalize bool) error {
	bc, nc := cells(base), cells(next)
	baseUnit, nextUnit := 1.0, 1.0
	if normalize {
		baseUnit = bc[1].EvalsPerSec
		nextUnit = nc[1].EvalsPerSec
	}
	var failed bool
	for _, br := range base.Rows {
		nr, ok := nc[br.Workers]
		if !ok {
			fmt.Printf("MISSING workers=%-2d (baseline %.1f evals/sec)\n", br.Workers, br.EvalsPerSec)
			failed = true
			continue
		}
		got, want := nr.EvalsPerSec/nextUnit, br.EvalsPerSec/baseUnit
		delta := got/want - 1
		status := "ok"
		if got < want*(1-tolerance) {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-9s workers=%-2d %8.1f -> %8.1f evals/sec (%+.1f%%)\n",
			status, br.Workers, br.EvalsPerSec, nr.EvalsPerSec, delta*100)
	}
	if failed {
		return fmt.Errorf("evals/sec regressed beyond %.0f%% tolerance", tolerance*100)
	}
	return nil
}

func main() {
	baseline := flag.String("compare", "", "baseline artifact to regression-check the argument against")
	tolerance := flag.Float64("tolerance", 0.2, "allowed fractional regression of each gated quantity in -compare")
	normalized := flag.Bool("compare-normalized", false, "compare SearchParallel cells relative to each run's serial cell")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchlint [-compare base.json] BENCH_file.json")
		os.Exit(2)
	}
	doc, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
		os.Exit(1)
	}

	if *baseline != "" {
		baseDoc, err := load(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
			os.Exit(1)
		}
		if err := compareDocs(baseDoc, doc, *tolerance, *normalized); err != nil {
			fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
			if errors.Is(err, errIncomparable) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		fmt.Printf("no regression beyond %.0f%% tolerance\n", *tolerance*100)
		return
	}
	stat(flag.Arg(0), doc)
}

// stat prints a summary of a validated artifact.
func stat(path string, doc schema.Checker) {
	switch d := doc.(type) {
	case *fleet.Bench:
		fmt.Printf("%s: %s, %d devices over %d apps × %d classes: %d uploads (%.1f/sec, dedup %.1fx), %d searches (%.1f/hour, %d resumed evals), cache hit ratio %.3f\n",
			path, d.Benchmark, d.Devices, d.Apps, d.DeviceClasses,
			d.Uploads, d.UploadsPerSec, d.DedupFactor,
			d.SearchesRun, d.SearchesPerHr, d.ResumedEvals, d.CacheHitRatio)
		for _, r := range d.Sweep {
			fmt.Printf("  concurrency=%-3d uploads=%-5d %8.1f uploads/sec\n", r.Concurrency, r.Uploads, r.UploadsPerSec)
		}
	case *pts.Bench:
		fmt.Printf("%s: %s, %d/%d same-kind pairs disambiguated; %d vmap stores elided; tv rejects %d; trace parity %v (%s)\n",
			path, d.Benchmark, d.PairsProven, d.PairsTotal, d.StoresElided, d.TVRejected, d.TraceParity, d.TraceApp)
		for _, r := range d.Apps {
			fmt.Printf("  %-14s kernel=%-5v pairs %3d/%-3d (%4.0f%%) sites %d/%d local  analysis %.1f ms\n",
				r.App, r.Kernel, r.Proven, r.Pairs, r.DisambiguationPct, r.NonEscaping, r.Sites, r.AnalysisMs)
		}
		for _, v := range d.Vmap {
			fmt.Printf("  vmap %-14s region=%s entries %d -> %d (elided %d)\n",
				v.App, v.Region, v.EntriesBlind, v.EntriesAlias, v.StoresElided)
		}
	case *vra.Bench:
		fmt.Printf("%s: %s, %d bounds checks discharged; tv rejects %d; trace parity %v (%s)\n",
			path, d.Benchmark, d.Discharged, d.TVRejected, d.TraceParity, d.TraceApp)
		for _, r := range d.Apps {
			fmt.Printf("  %-14s kernel=%-5v bound %3d -> %3d (%4.0f%%) divu %d  analysis %.1f ms\n",
				r.App, r.Kernel, r.BoundsBase, r.BoundsOpt, r.DischargePct, r.UnguardedDivs, r.AnalysisMs)
		}
	case *core.Bench:
		fmt.Printf("%s: %s on %s (%s scale), %d workers max\n",
			path, d.Benchmark, d.App, d.Scale, d.MaxWorkers)
		fmt.Printf("restore p50 %.3f ms, clone p50 %.3f ms, reset p50 %.3f ms; %d template builds, %d warm runs\n",
			d.RestoreP50Ms, d.CloneP50Ms, d.ResetP50Ms, d.TemplateBuilds, d.WarmRuns)
		for _, r := range d.Rows {
			fmt.Printf("  workers=%-2d %8.0f ms  %8.1f evals/sec\n", r.Workers, r.Ms, r.EvalsPerSec)
		}
	default:
		fmt.Printf("%s: artifact ok\n", path)
	}
}
