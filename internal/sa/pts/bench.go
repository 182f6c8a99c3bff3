package pts

import (
	"errors"
	"fmt"

	"replayopt/internal/schema"
)

// BenchSchemaVersion versions BENCH_alias.json. Bump on any field change
// (the CONTRIBUTING.md artifact-versioning rule).
const BenchSchemaVersion = 1

// Bench is the BENCH_alias.json artifact BenchmarkAliasAnalysis emits: how
// many same-kind access pairs the points-to analysis separates, what the
// §3.4 verification map sheds, and the two safety properties the alias
// passes claim. The fields are declared in sorted key order, the order the
// artifact has always had.
type Bench struct {
	Apps          []BenchRow `json:"apps"`
	Benchmark     string     `json:"benchmark"` // always "AliasAnalysis"
	KernelMinPct  float64    `json:"kernel_min_disambiguation_pct"`
	PairsProven   int        `json:"pairs_proven"`
	PairsTotal    int        `json:"pairs_total"`
	SchemaVersion int        `json:"schema_version"`
	StoresElided  int        `json:"stores_elided"`
	TraceApp      string     `json:"trace_app"`
	// TraceParity records that a search with the alias passes excluded
	// made the same decisions with summaries attached and without.
	TraceParity bool           `json:"trace_parity"`
	TVRejected  int            `json:"tv_rejected"`
	Vmap        []BenchVmapRow `json:"vmap"`
}

// BenchRow is one app: the hot region's same-kind access pairs and
// allocation sites, and the whole-program cycle counts at O1 and with the
// alias-aware memory pipeline appended.
type BenchRow struct {
	App               string  `json:"app"`
	Kernel            bool    `json:"kernel"`
	Pairs             int     `json:"pairs"`
	Proven            int     `json:"proven"`
	DisambiguationPct float64 `json:"disambiguation_pct"`
	Sites             int     `json:"sites"`
	NonEscaping       int     `json:"non_escaping"`
	CyclesBase        uint64  `json:"cycles_base"`
	CyclesOpt         uint64  `json:"cycles_opt"`
	CycleDeltaPct     float64 `json:"cycle_delta_pct"`
	AnalysisMs        float64 `json:"analysis_ms"`
}

// BenchVmapRow is one verification-map subject, built alias-blind and
// alias-aware.
type BenchVmapRow struct {
	App          string `json:"app"`
	Region       string `json:"region"`
	EntriesBlind int    `json:"entries_blind"`
	EntriesAlias int    `json:"entries_alias"`
	StoresElided int    `json:"stores_elided"`
}

// Check enforces the artifact's invariants: the schema version and
// benchmark name, one row per app and per vmap subject, sound counts, every
// kernel subject above the disambiguation floor, totals that reconcile with
// the rows, a vmap that shrinks, no tv rejection, and trace parity.
func (a *Bench) Check() error {
	switch {
	case a.SchemaVersion != BenchSchemaVersion:
		return fmt.Errorf("schema_version %d, want %d", a.SchemaVersion, BenchSchemaVersion)
	case a.Benchmark != "AliasAnalysis":
		return fmt.Errorf("benchmark %q, want AliasAnalysis", a.Benchmark)
	case len(a.Apps) == 0:
		return errors.New("no app rows")
	}
	if err := schema.Unique("apps", a.Apps, func(r BenchRow) string { return r.App }); err != nil {
		return err
	}
	if err := schema.Unique("vmap", a.Vmap, func(v BenchVmapRow) string { return v.App }); err != nil {
		return err
	}
	kernels, proven, pairs := 0, 0, 0
	for i, r := range a.Apps {
		switch {
		case r.App == "":
			return fmt.Errorf("apps[%d]: missing app name", i)
		case r.Proven > r.Pairs:
			return fmt.Errorf("%s: proven %d exceeds pairs %d (unsound count)", r.App, r.Proven, r.Pairs)
		case r.NonEscaping > r.Sites:
			return fmt.Errorf("%s: non_escaping %d exceeds sites %d", r.App, r.NonEscaping, r.Sites)
		case r.CyclesBase == 0 || r.CyclesOpt == 0:
			return fmt.Errorf("%s: zero exec cycles", r.App)
		case r.Kernel && r.DisambiguationPct < a.KernelMinPct:
			return fmt.Errorf("%s: kernel subject disambiguated %.0f%%, floor is %.0f%%", r.App, r.DisambiguationPct, a.KernelMinPct)
		}
		if r.Kernel {
			kernels++
		}
		proven += r.Proven
		pairs += r.Pairs
	}
	switch {
	case kernels == 0:
		return errors.New("no kernel subjects gated")
	case proven != a.PairsProven || pairs != a.PairsTotal:
		return fmt.Errorf("pairs_proven/pairs_total %d/%d but rows sum to %d/%d", a.PairsProven, a.PairsTotal, proven, pairs)
	}
	elided, shrunk := 0, 0
	for i, v := range a.Vmap {
		switch {
		case v.App == "":
			return fmt.Errorf("vmap[%d]: missing app name", i)
		case v.EntriesAlias > v.EntriesBlind:
			return fmt.Errorf("%s: alias-aware vmap grew (%d -> %d entries)", v.App, v.EntriesBlind, v.EntriesAlias)
		}
		elided += v.StoresElided
		shrunk += v.EntriesBlind - v.EntriesAlias
	}
	switch {
	case elided != a.StoresElided:
		return fmt.Errorf("stores_elided %d but vmap rows sum to %d", a.StoresElided, elided)
	case shrunk <= 0:
		return errors.New("no vmap size win over the blind maps")
	case a.TVRejected != 0:
		return fmt.Errorf("tv_rejected %d: alias passes must never be Rejected", a.TVRejected)
	case !a.TraceParity:
		return errors.New("trace_parity false: attached summaries perturbed an excluded-pass search")
	case a.TraceApp == "":
		return errors.New("missing trace_app")
	}
	return nil
}
