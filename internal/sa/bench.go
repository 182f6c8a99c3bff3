package sa

import (
	"errors"
	"fmt"

	"replayopt/internal/schema"
)

// BenchSchemaVersion versions BENCH_sa.json. Bump on any field change (the
// CONTRIBUTING.md artifact-versioning rule).
const BenchSchemaVersion = 2

// Bench is the BENCH_sa.json artifact BenchmarkEffectAnalysis emits: what
// the effect analysis buys over the §3.1 boolean blocklist. The fields are
// declared in sorted key order, the order the artifact has always had.
type Bench struct {
	Apps               []BenchRow     `json:"apps"`
	Benchmark          string         `json:"benchmark"` // always "EffectAnalysis"
	CallVDevirtualized int            `json:"callv_devirtualized"`
	DeepBlocklist      int            `json:"deep_replayable_blocklist"`
	DeepEffects        int            `json:"deep_replayable_effects"`
	GCChkEliminated    int            `json:"gcchk_eliminated"`
	SchemaVersion      int            `json:"schema_version"`
	Vmap               []BenchVmapRow `json:"vmap"`
}

// BenchRow is one app: deep-replayable methods under the blocklist and
// under the effect analysis, and the GC checks and virtual calls an O2
// compile keeps without and with the analysis.
type BenchRow struct {
	App           string `json:"app"`
	Methods       int    `json:"methods"`
	DeepBlocklist int    `json:"deep_replayable_blocklist"`
	DeepEffects   int    `json:"deep_replayable_effects"`
	GCChkBaseline int    `json:"gcchk_baseline"`
	GCChkEffects  int    `json:"gcchk_effects"`
	CallVBaseline int    `json:"callv_baseline"`
	CallVEffects  int    `json:"callv_effects"`
}

// BenchVmapRow is one verification-map subject, built conservatively and
// effect-aware.
type BenchVmapRow struct {
	App                 string `json:"app"`
	Region              string `json:"region_root"`
	RegionEffect        string `json:"region_effect"`
	EntriesConservative int    `json:"entries_conservative"`
	EntriesEffects      int    `json:"entries_effects"`
	StoresSkipped       bool   `json:"stores_skipped"`
}

// Check enforces the artifact's invariants: the schema version and
// benchmark name, one row per app, and totals that reconcile with the rows.
func (a *Bench) Check() error {
	switch {
	case a.SchemaVersion != BenchSchemaVersion:
		return fmt.Errorf("schema_version %d, want %d", a.SchemaVersion, BenchSchemaVersion)
	case a.Benchmark != "EffectAnalysis":
		return fmt.Errorf("benchmark %q, want EffectAnalysis", a.Benchmark)
	case len(a.Apps) == 0:
		return errors.New("no app rows")
	}
	if err := schema.Unique("apps", a.Apps, func(r BenchRow) string { return r.App }); err != nil {
		return err
	}
	var rows Bench
	for _, r := range a.Apps {
		rows.DeepBlocklist += r.DeepBlocklist
		rows.DeepEffects += r.DeepEffects
		rows.GCChkEliminated += r.GCChkBaseline - r.GCChkEffects
		rows.CallVDevirtualized += r.CallVBaseline - r.CallVEffects
	}
	for _, c := range [...]struct {
		key       string
		got, want int
	}{
		{"deep_replayable_blocklist", a.DeepBlocklist, rows.DeepBlocklist},
		{"deep_replayable_effects", a.DeepEffects, rows.DeepEffects},
		{"gcchk_eliminated", a.GCChkEliminated, rows.GCChkEliminated},
		{"callv_devirtualized", a.CallVDevirtualized, rows.CallVDevirtualized},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s %d but rows sum to %d", c.key, c.got, c.want)
		}
	}
	return nil
}
