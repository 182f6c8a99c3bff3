package tv

import (
	"errors"
	"fmt"

	"replayopt/internal/schema"
)

// BenchSchemaVersion versions BENCH_tv.json. Bump on any field change (the
// CONTRIBUTING.md artifact-versioning rule).
const BenchSchemaVersion = 1

// Bench is the BENCH_tv.json artifact BenchmarkTranslationValidation emits:
// what the per-pass validator costs at each preset, and the replay
// evaluations a validated search saves. The fields are declared in sorted
// key order, the order the artifact has always had.
type Bench struct {
	Benchmark        string     `json:"benchmark"` // always "TranslationValidation"
	CompileCheckedMs float64    `json:"compile_checked_ms"`
	CompileMs        float64    `json:"compile_ms"`
	Presets          []BenchRow `json:"presets"`
	ReplayEvalsSaved int        `json:"replay_evals_saved"`
	SchemaVersion    int        `json:"schema_version"`
	// TVRejects counts the candidates the validated search (a separate run
	// with the miscompiling pass in the catalog) discarded statically; it
	// is not a sum of the preset rows.
	TVRejects  int `json:"tv_rejects"`
	Unverified int `json:"unverified"`
	Verified   int `json:"verified"`
}

// BenchRow is one app compiled at one preset, without and with the
// validator attached to every pass, and the validator's verdicts.
type BenchRow struct {
	App        string  `json:"app"`
	Preset     string  `json:"preset"`
	PlainMs    float64 `json:"compile_ms"`
	CheckedMs  float64 `json:"compile_checked_ms"`
	PerPassUs  float64 `json:"validate_per_pass_us"`
	Verified   int     `json:"verified"`
	Unverified int     `json:"unverified"`
	Rejected   int     `json:"rejected"`
}

// Check enforces the artifact's invariants: the schema version and
// benchmark name, one row per (app, preset), verdict totals that reconcile
// with the rows, and the validated search's claim: it rejected at least one
// candidate, and each rejection saved at least one replay evaluation.
func (a *Bench) Check() error {
	switch {
	case a.SchemaVersion != BenchSchemaVersion:
		return fmt.Errorf("schema_version %d, want %d", a.SchemaVersion, BenchSchemaVersion)
	case a.Benchmark != "TranslationValidation":
		return fmt.Errorf("benchmark %q, want TranslationValidation", a.Benchmark)
	case len(a.Presets) == 0:
		return errors.New("no preset rows")
	case a.TVRejects < 1:
		return fmt.Errorf("tv_rejects %d: the validated search rejected nothing", a.TVRejects)
	case a.ReplayEvalsSaved < a.TVRejects:
		return fmt.Errorf("replay_evals_saved %d below tv_rejects %d", a.ReplayEvalsSaved, a.TVRejects)
	}
	if err := schema.Unique("presets", a.Presets, func(r BenchRow) [2]string { return [2]string{r.App, r.Preset} }); err != nil {
		return err
	}
	verified, unverified := 0, 0
	for _, r := range a.Presets {
		verified += r.Verified
		unverified += r.Unverified
	}
	if verified != a.Verified || unverified != a.Unverified {
		return fmt.Errorf("verified/unverified %d/%d but rows sum to %d/%d", a.Verified, a.Unverified, verified, unverified)
	}
	return nil
}
