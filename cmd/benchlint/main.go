// Command benchlint validates and regression-checks BENCH_*.json artifacts.
// It dispatches on the document's "benchmark" field: SearchParallel (the
// worker-count sweep of DESIGN.md §11, with -compare regression gating),
// RangeAnalysis (the value-range discharge artifact of
// BenchmarkRangeAnalysis), AliasAnalysis (the points-to disambiguation
// artifact of BenchmarkAliasAnalysis, also -compare gated), and Fleet (the
// fleetload coordinator sweep of DESIGN.md §15, -compare gated on cache hit
// ratio and uploads/sec).
//
// Usage:
//
//	benchlint BENCH_parallel.json                    # stat: table + schema check
//	benchlint BENCH_range.json                       # stat for a range artifact
//	benchlint BENCH_alias.json                       # stat for an alias artifact
//	benchlint BENCH_fleet.json                       # stat for a fleet artifact
//	benchlint -validate < BENCH_parallel.json        # schema check from stdin
//	benchlint -compare base.json [-tolerance 0.2] BENCH_parallel.json
//	benchlint -compare base_alias.json BENCH_alias.json
//	benchlint -compare base_fleet.json BENCH_fleet.json
//
// -compare reads a baseline artifact and fails (exit 1) when the new artifact
// regresses beyond the tolerance. For SearchParallel the gated quantity is
// each sweep cell's evals/sec against the cell of the same worker count;
// cells present in the baseline must still exist in the new artifact, and
// new cells (e.g. a wider sweep on a bigger runner) are allowed.
// -compare-normalized divides every cell by its run's serial cell first, so
// machine-speed differences cancel and only parallel efficiency is
// compared. A Fleet artifact decodes strictly into fleet.Bench. For
// AliasAnalysis the gated quantities are machine-independent, so no
// normalization applies: each baseline app's disambiguation rate and each
// vmap subject's entry shrink must hold, and tv rejections and trace parity
// must stay clean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"replayopt/internal/fleet"
	"replayopt/internal/schema"
)

type sweepRow struct {
	Workers     int     `json:"workers"`
	Ms          float64 `json:"ms"`
	Evaluations int     `json:"evaluations"`
	EvalsPerSec float64 `json:"evals_per_sec"`
}

type artifact struct {
	SchemaVersion  int        `json:"schema_version"`
	Benchmark      string     `json:"benchmark"`
	App            string     `json:"app"`
	Scale          string     `json:"scale"`
	MaxWorkers     int        `json:"max_workers"`
	Rows           []sweepRow `json:"rows"`
	Evaluations    int        `json:"evaluations"`
	RestoreP50Ms   float64    `json:"restore_p50_ms"`
	CloneP50Ms     float64    `json:"clone_p50_ms"`
	ResetP50Ms     float64    `json:"reset_p50_ms"`
	TemplateBuilds float64    `json:"template_builds"`
	WarmRuns       float64    `json:"warm_runs"`
}

// rangeRow is one app of the RangeAnalysis artifact.
type rangeRow struct {
	App           string  `json:"app"`
	Kernel        bool    `json:"kernel"`
	BoundsBase    int     `json:"bounds_base"`
	BoundsOpt     int     `json:"bounds_opt"`
	DischargePct  float64 `json:"discharge_pct"`
	UnguardedDivs int     `json:"unguarded_divs"`
	CyclesBase    uint64  `json:"cycles_base"`
	CyclesOpt     uint64  `json:"cycles_opt"`
	AnalysisMs    float64 `json:"analysis_ms"`
}

type rangeArtifact struct {
	SchemaVersion int        `json:"schema_version"`
	Benchmark     string     `json:"benchmark"`
	Apps          []rangeRow `json:"apps"`
	KernelMinPct  float64    `json:"kernel_min_discharge_pct"`
	Discharged    int        `json:"bounds_discharged"`
	TVRejected    int        `json:"tv_rejected"`
	TraceParity   bool       `json:"trace_parity"`
	TraceApp      string     `json:"trace_app"`
}

func validateRange(a *rangeArtifact) error {
	if a.SchemaVersion != 1 {
		return fmt.Errorf("schema_version %d, want 1", a.SchemaVersion)
	}
	if len(a.Apps) == 0 {
		return fmt.Errorf("no app rows")
	}
	kernels, discharged := 0, 0
	for i, r := range a.Apps {
		if r.App == "" {
			return fmt.Errorf("apps[%d]: missing app name", i)
		}
		if r.BoundsOpt > r.BoundsBase {
			return fmt.Errorf("%s: bounds_opt %d exceeds bounds_base %d (unsound count)", r.App, r.BoundsOpt, r.BoundsBase)
		}
		if r.CyclesBase == 0 || r.CyclesOpt == 0 {
			return fmt.Errorf("%s: zero exec cycles", r.App)
		}
		if r.Kernel {
			kernels++
			if r.DischargePct < a.KernelMinPct {
				return fmt.Errorf("%s: kernel subject discharged %.0f%%, floor is %.0f%%", r.App, r.DischargePct, a.KernelMinPct)
			}
		}
		discharged += r.BoundsBase - r.BoundsOpt
	}
	if kernels == 0 {
		return fmt.Errorf("no kernel subjects gated")
	}
	if discharged != a.Discharged {
		return fmt.Errorf("bounds_discharged %d but rows sum to %d", a.Discharged, discharged)
	}
	if a.TVRejected != 0 {
		return fmt.Errorf("tv_rejected %d: range passes must never be Rejected", a.TVRejected)
	}
	if !a.TraceParity {
		return fmt.Errorf("trace_parity false: attached summaries perturbed an excluded-pass search")
	}
	if a.TraceApp == "" {
		return fmt.Errorf("missing trace_app")
	}
	return nil
}

// aliasRow is one app of the AliasAnalysis artifact.
type aliasRow struct {
	App               string  `json:"app"`
	Kernel            bool    `json:"kernel"`
	Pairs             int     `json:"pairs"`
	Proven            int     `json:"proven"`
	DisambiguationPct float64 `json:"disambiguation_pct"`
	Sites             int     `json:"sites"`
	NonEscaping       int     `json:"non_escaping"`
	CyclesBase        uint64  `json:"cycles_base"`
	CyclesOpt         uint64  `json:"cycles_opt"`
	AnalysisMs        float64 `json:"analysis_ms"`
}

// aliasVmapRow is one verification-map subject of the AliasAnalysis artifact.
type aliasVmapRow struct {
	App          string `json:"app"`
	Region       string `json:"region"`
	EntriesBlind int    `json:"entries_blind"`
	EntriesAlias int    `json:"entries_alias"`
	StoresElided int    `json:"stores_elided"`
}

type aliasArtifact struct {
	SchemaVersion int            `json:"schema_version"`
	Benchmark     string         `json:"benchmark"`
	Apps          []aliasRow     `json:"apps"`
	Vmap          []aliasVmapRow `json:"vmap"`
	KernelMinPct  float64        `json:"kernel_min_disambiguation_pct"`
	PairsProven   int            `json:"pairs_proven"`
	PairsTotal    int            `json:"pairs_total"`
	StoresElided  int            `json:"stores_elided"`
	TVRejected    int            `json:"tv_rejected"`
	TraceParity   bool           `json:"trace_parity"`
	TraceApp      string         `json:"trace_app"`
}

func validateAlias(a *aliasArtifact) error {
	if a.SchemaVersion != 1 {
		return fmt.Errorf("schema_version %d, want 1", a.SchemaVersion)
	}
	if len(a.Apps) == 0 {
		return fmt.Errorf("no app rows")
	}
	kernels, proven, pairs := 0, 0, 0
	for i, r := range a.Apps {
		if r.App == "" {
			return fmt.Errorf("apps[%d]: missing app name", i)
		}
		if r.Proven > r.Pairs {
			return fmt.Errorf("%s: proven %d exceeds pairs %d (unsound count)", r.App, r.Proven, r.Pairs)
		}
		if r.NonEscaping > r.Sites {
			return fmt.Errorf("%s: non_escaping %d exceeds sites %d", r.App, r.NonEscaping, r.Sites)
		}
		if r.CyclesBase == 0 || r.CyclesOpt == 0 {
			return fmt.Errorf("%s: zero exec cycles", r.App)
		}
		if r.Kernel {
			kernels++
			if r.DisambiguationPct < a.KernelMinPct {
				return fmt.Errorf("%s: kernel subject disambiguated %.0f%%, floor is %.0f%%", r.App, r.DisambiguationPct, a.KernelMinPct)
			}
		}
		proven += r.Proven
		pairs += r.Pairs
	}
	if kernels == 0 {
		return fmt.Errorf("no kernel subjects gated")
	}
	if proven != a.PairsProven || pairs != a.PairsTotal {
		return fmt.Errorf("pairs_proven/pairs_total %d/%d but rows sum to %d/%d", a.PairsProven, a.PairsTotal, proven, pairs)
	}
	elided, shrunk := 0, 0
	for i, v := range a.Vmap {
		if v.App == "" {
			return fmt.Errorf("vmap[%d]: missing app name", i)
		}
		if v.EntriesAlias > v.EntriesBlind {
			return fmt.Errorf("%s: alias-aware vmap grew (%d -> %d entries)", v.App, v.EntriesBlind, v.EntriesAlias)
		}
		elided += v.StoresElided
		shrunk += v.EntriesBlind - v.EntriesAlias
	}
	if elided != a.StoresElided {
		return fmt.Errorf("stores_elided %d but vmap rows sum to %d", a.StoresElided, elided)
	}
	if shrunk <= 0 {
		return fmt.Errorf("no vmap size win over the blind maps")
	}
	if a.TVRejected != 0 {
		return fmt.Errorf("tv_rejected %d: alias passes must never be Rejected", a.TVRejected)
	}
	if !a.TraceParity {
		return fmt.Errorf("trace_parity false: attached summaries perturbed an excluded-pass search")
	}
	if a.TraceApp == "" {
		return fmt.Errorf("missing trace_app")
	}
	return nil
}

// compareAlias gates a new AliasAnalysis artifact on a baseline: every
// baseline app must keep its disambiguation rate and every baseline vmap
// subject its entry shrink, within the tolerance. The quantities are counts
// of static proofs, not timings, so cross-machine runs compare directly.
func compareAlias(base, next *aliasArtifact, tolerance float64) error {
	nextApp := map[string]aliasRow{}
	for _, r := range next.Apps {
		nextApp[r.App] = r
	}
	nextVmap := map[string]aliasVmapRow{}
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

// parsed is one validated artifact of any supported benchmark (exactly one
// field is non-nil).
type parsed struct {
	parallel *artifact
	ranged   *rangeArtifact
	alias    *aliasArtifact
	fleet    *fleet.Bench
}

func parse(data []byte) (parsed, error) {
	var probe struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return parsed{}, fmt.Errorf("parse: %w", err)
	}
	switch probe.Benchmark {
	case "SearchParallel":
		var a artifact
		if err := json.Unmarshal(data, &a); err != nil {
			return parsed{}, fmt.Errorf("parse: %w", err)
		}
		return parsed{parallel: &a}, validate(&a)
	case "RangeAnalysis":
		var a rangeArtifact
		if err := json.Unmarshal(data, &a); err != nil {
			return parsed{}, fmt.Errorf("parse: %w", err)
		}
		return parsed{ranged: &a}, validateRange(&a)
	case "AliasAnalysis":
		var a aliasArtifact
		if err := json.Unmarshal(data, &a); err != nil {
			return parsed{}, fmt.Errorf("parse: %w", err)
		}
		return parsed{alias: &a}, validateAlias(&a)
	case "Fleet":
		var a fleet.Bench
		return parsed{fleet: &a}, schema.Decode(data, &a)
	default:
		return parsed{}, fmt.Errorf("unknown benchmark %q", probe.Benchmark)
	}
}

func validate(a *artifact) error {
	if a.SchemaVersion != 4 {
		return fmt.Errorf("schema_version %d, want 4", a.SchemaVersion)
	}
	if a.Benchmark != "SearchParallel" {
		return fmt.Errorf("benchmark %q, want SearchParallel", a.Benchmark)
	}
	if a.App == "" {
		return fmt.Errorf("missing app")
	}
	if a.MaxWorkers < 1 {
		return fmt.Errorf("max_workers %d", a.MaxWorkers)
	}
	if len(a.Rows) == 0 {
		return fmt.Errorf("no sweep rows")
	}
	seen := map[int]bool{}
	for i, r := range a.Rows {
		if r.Workers < 1 || r.Ms <= 0 || r.Evaluations <= 0 || r.EvalsPerSec <= 0 {
			return fmt.Errorf("row %d (workers=%d): non-positive field", i, r.Workers)
		}
		if seen[r.Workers] {
			return fmt.Errorf("duplicate cell workers=%d", r.Workers)
		}
		seen[r.Workers] = true
	}
	if !seen[1] {
		return fmt.Errorf("missing serial cell")
	}
	if !seen[a.MaxWorkers] {
		return fmt.Errorf("missing max_workers=%d cell", a.MaxWorkers)
	}
	if a.WarmRuns < 1 {
		return fmt.Errorf("warm_runs %.0f: the sweep ran but no warm replay was recorded", a.WarmRuns)
	}
	if a.TemplateBuilds < 1 {
		return fmt.Errorf("template_builds %.0f", a.TemplateBuilds)
	}
	return nil
}

func cells(a *artifact) map[int]sweepRow {
	m := make(map[int]sweepRow, len(a.Rows))
	for _, r := range a.Rows {
		m[r.Workers] = r
	}
	return m
}

// compare gates the new artifact on the baseline: every baseline cell must
// still exist and hold at least (1 - tolerance) of its evals/sec. With
// normalize set, both sides are divided by their own serial cell first.
func compare(base, next *artifact, tolerance float64, normalize bool) error {
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

func load(path string) (parsed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return parsed{}, err
	}
	a, err := parse(data)
	if err != nil {
		return parsed{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

func main() {
	validateStdin := flag.Bool("validate", false, "read the artifact from stdin and validate its structure")
	baseline := flag.String("compare", "", "baseline artifact to regression-check the argument against")
	tolerance := flag.Float64("tolerance", 0.2, "allowed fractional evals/sec regression in -compare")
	normalized := flag.Bool("compare-normalized", false, "compare cells relative to each run's serial cell")
	flag.Parse()

	if *validateStdin {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := parse(data); err != nil {
			fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("artifact ok")
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchlint [-validate|-compare base.json] BENCH_file.json")
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
		switch {
		case baseDoc.parallel != nil && doc.parallel != nil:
			if err := compare(baseDoc.parallel, doc.parallel, *tolerance, *normalized); err != nil {
				fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
				os.Exit(1)
			}
		case baseDoc.alias != nil && doc.alias != nil:
			if err := compareAlias(baseDoc.alias, doc.alias, *tolerance); err != nil {
				fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
				os.Exit(1)
			}
		case baseDoc.fleet != nil && doc.fleet != nil:
			if err := compareFleet(baseDoc.fleet, doc.fleet, *tolerance); err != nil {
				fmt.Fprintf(os.Stderr, "benchlint: %v\n", err)
				os.Exit(1)
			}
		default:
			fmt.Fprintln(os.Stderr, "benchlint: -compare needs two artifacts of the same benchmark (SearchParallel, AliasAnalysis, or Fleet)")
			os.Exit(2)
		}
		fmt.Printf("no regression beyond %.0f%% tolerance\n", *tolerance*100)
		return
	}

	if fl := doc.fleet; fl != nil {
		fmt.Printf("%s: %s, %d devices over %d apps × %d classes: %d uploads (%.1f/sec, dedup %.1fx), %d searches (%.1f/hour, %d resumed evals), cache hit ratio %.3f\n",
			flag.Arg(0), fl.Benchmark, fl.Devices, fl.Apps, fl.DeviceClasses,
			fl.Uploads, fl.UploadsPerSec, fl.DedupFactor,
			fl.SearchesRun, fl.SearchesPerHr, fl.ResumedEvals, fl.CacheHitRatio)
		for _, r := range fl.Sweep {
			fmt.Printf("  concurrency=%-3d uploads=%-5d %8.1f uploads/sec\n", r.Concurrency, r.Uploads, r.UploadsPerSec)
		}
		return
	}
	if al := doc.alias; al != nil {
		fmt.Printf("%s: %s, %d/%d same-kind pairs disambiguated; %d vmap stores elided; tv rejects %d; trace parity %v (%s)\n",
			flag.Arg(0), al.Benchmark, al.PairsProven, al.PairsTotal, al.StoresElided, al.TVRejected, al.TraceParity, al.TraceApp)
		for _, r := range al.Apps {
			fmt.Printf("  %-14s kernel=%-5v pairs %3d/%-3d (%4.0f%%) sites %d/%d local  analysis %.1f ms\n",
				r.App, r.Kernel, r.Proven, r.Pairs, r.DisambiguationPct, r.NonEscaping, r.Sites, r.AnalysisMs)
		}
		for _, v := range al.Vmap {
			fmt.Printf("  vmap %-14s region=%s entries %d -> %d (elided %d)\n",
				v.App, v.Region, v.EntriesBlind, v.EntriesAlias, v.StoresElided)
		}
		return
	}
	if rng := doc.ranged; rng != nil {
		fmt.Printf("%s: %s, %d bounds checks discharged; tv rejects %d; trace parity %v (%s)\n",
			flag.Arg(0), rng.Benchmark, rng.Discharged, rng.TVRejected, rng.TraceParity, rng.TraceApp)
		for _, r := range rng.Apps {
			fmt.Printf("  %-14s kernel=%-5v bound %3d -> %3d (%4.0f%%) divu %d  analysis %.1f ms\n",
				r.App, r.Kernel, r.BoundsBase, r.BoundsOpt, r.DischargePct, r.UnguardedDivs, r.AnalysisMs)
		}
		return
	}
	next := doc.parallel
	fmt.Printf("%s: %s on %s (%s scale), %d workers max\n",
		flag.Arg(0), next.Benchmark, next.App, next.Scale, next.MaxWorkers)
	fmt.Printf("restore p50 %.3f ms, clone p50 %.3f ms, reset p50 %.3f ms; %.0f template builds, %.0f warm runs\n",
		next.RestoreP50Ms, next.CloneP50Ms, next.ResetP50Ms, next.TemplateBuilds, next.WarmRuns)
	for _, r := range next.Rows {
		fmt.Printf("  workers=%-2d %8.0f ms  %8.1f evals/sec\n", r.Workers, r.Ms, r.EvalsPerSec)
	}
}
