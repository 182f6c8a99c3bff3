package core

import (
	"errors"
	"fmt"
)

// BenchSchemaVersion versions BENCH_parallel.json. Bump on any field change
// (the CONTRIBUTING.md artifact-versioning rule).
const BenchSchemaVersion = 4

// Bench is the BENCH_parallel.json artifact BenchmarkSearchParallel emits:
// one seeded §3.6 search swept across worker counts on warm replay workers.
// The fields are declared in sorted key order, the order the artifact has
// always had.
type Bench struct {
	App         string  `json:"app"`
	Benchmark   string  `json:"benchmark"` // always "SearchParallel"
	CacheHits   int     `json:"cache_hits"`
	CloneP50Ms  float64 `json:"clone_p50_ms"`
	Considered  int     `json:"considered"`
	EvalP50Ms   float64 `json:"eval_p50_ms"`
	EvalP99Ms   float64 `json:"eval_p99_ms"`
	Evaluations int     `json:"evaluations"`
	// Generations are the per-generation rows of the instrumented
	// (widest) cell of the sweep.
	Generations    []BenchGeneration `json:"generations"`
	MaxWorkers     int               `json:"max_workers"`
	ResetP50Ms     float64           `json:"reset_p50_ms"`
	RestoreP50Ms   float64           `json:"restore_p50_ms"`
	Rows           []BenchRow        `json:"rows"`
	SavedReplayMs  float64           `json:"saved_replay_ms"`
	Scale          string            `json:"scale"`
	SchemaVersion  int               `json:"schema_version"`
	TemplateBuilds int64             `json:"template_builds"`
	WarmRuns       int64             `json:"warm_runs"`
}

// BenchRow is one cell of the worker-count sweep.
type BenchRow struct {
	Workers     int     `json:"workers"`
	Ms          float64 `json:"ms"`
	Evaluations int     `json:"evaluations"`
	EvalsPerSec float64 `json:"evals_per_sec"`
}

// BenchGeneration is one GA generation of the instrumented cell.
type BenchGeneration struct {
	Gen         int     `json:"gen"`
	Evals       int     `json:"evals"`
	CacheHits   int     `json:"cache_hits"`
	EvalP50Ms   float64 `json:"eval_p50_ms"`
	EvalP99Ms   float64 `json:"eval_p99_ms"`
	BestSpeedup float64 `json:"best_speedup"`
}

// Check enforces the artifact's invariants: the schema version and
// benchmark name, positive sweep cells with one cell per worker count
// including the serial and the max_workers cell, and a sweep that ran warm.
func (a *Bench) Check() error {
	switch {
	case a.SchemaVersion != BenchSchemaVersion:
		return fmt.Errorf("schema_version %d, want %d", a.SchemaVersion, BenchSchemaVersion)
	case a.Benchmark != "SearchParallel":
		return fmt.Errorf("benchmark %q, want SearchParallel", a.Benchmark)
	case a.App == "":
		return errors.New("missing app")
	case a.MaxWorkers < 1:
		return fmt.Errorf("max_workers %d", a.MaxWorkers)
	case len(a.Rows) == 0:
		return errors.New("no sweep rows")
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
	switch {
	case !seen[1]:
		return errors.New("missing serial cell")
	case !seen[a.MaxWorkers]:
		return fmt.Errorf("missing max_workers=%d cell", a.MaxWorkers)
	case a.WarmRuns < 1:
		return fmt.Errorf("warm_runs %d: the sweep ran but no warm replay was recorded", a.WarmRuns)
	case a.TemplateBuilds < 1:
		return fmt.Errorf("template_builds %d", a.TemplateBuilds)
	}
	return nil
}
