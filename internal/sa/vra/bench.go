package vra

import (
	"errors"
	"fmt"

	"replayopt/internal/schema"
)

// BenchSchemaVersion versions BENCH_range.json. Bump on any field change
// (the CONTRIBUTING.md artifact-versioning rule).
const BenchSchemaVersion = 1

// Bench is the BENCH_range.json artifact BenchmarkRangeAnalysis emits: what
// the range passes discharge from the hot region, and the two safety
// properties they claim. The fields are declared in sorted key order, the
// order the artifact has always had.
type Bench struct {
	Apps          []BenchRow `json:"apps"`
	Benchmark     string     `json:"benchmark"` // always "RangeAnalysis"
	Discharged    int        `json:"bounds_discharged"`
	KernelMinPct  float64    `json:"kernel_min_discharge_pct"`
	SchemaVersion int        `json:"schema_version"`
	TraceApp      string     `json:"trace_app"`
	// TraceParity records that a search with the range passes excluded
	// made the same decisions with summaries attached and without.
	TraceParity bool `json:"trace_parity"`
	TVRejected  int  `json:"tv_rejected"`
}

// BenchRow is one app: machine-level bounds checks in the hot region at O1
// (BoundsBase) and with the range passes appended (BoundsOpt), and the
// whole-program cycle counts of the same two pipelines.
type BenchRow struct {
	App           string  `json:"app"`
	Kernel        bool    `json:"kernel"`
	BoundsBase    int     `json:"bounds_base"`
	BoundsOpt     int     `json:"bounds_opt"`
	DischargePct  float64 `json:"discharge_pct"`
	UnguardedDivs int     `json:"unguarded_divs"`
	CyclesBase    uint64  `json:"cycles_base"`
	CyclesOpt     uint64  `json:"cycles_opt"`
	CycleDeltaPct float64 `json:"cycle_delta_pct"`
	AnalysisMs    float64 `json:"analysis_ms"`
}

// Check enforces the artifact's invariants: the schema version and
// benchmark name, one row per app, sound counts, every kernel subject above
// the discharge floor, a total that reconciles with the rows, no tv
// rejection, and trace parity.
func (a *Bench) Check() error {
	switch {
	case a.SchemaVersion != BenchSchemaVersion:
		return fmt.Errorf("schema_version %d, want %d", a.SchemaVersion, BenchSchemaVersion)
	case a.Benchmark != "RangeAnalysis":
		return fmt.Errorf("benchmark %q, want RangeAnalysis", a.Benchmark)
	case len(a.Apps) == 0:
		return errors.New("no app rows")
	}
	if err := schema.Unique("apps", a.Apps, func(r BenchRow) string { return r.App }); err != nil {
		return err
	}
	kernels, discharged := 0, 0
	for i, r := range a.Apps {
		switch {
		case r.App == "":
			return fmt.Errorf("apps[%d]: missing app name", i)
		case r.BoundsOpt > r.BoundsBase:
			return fmt.Errorf("%s: bounds_opt %d exceeds bounds_base %d (unsound count)", r.App, r.BoundsOpt, r.BoundsBase)
		case r.CyclesBase == 0 || r.CyclesOpt == 0:
			return fmt.Errorf("%s: zero exec cycles", r.App)
		case r.Kernel && r.DischargePct < a.KernelMinPct:
			return fmt.Errorf("%s: kernel subject discharged %.0f%%, floor is %.0f%%", r.App, r.DischargePct, a.KernelMinPct)
		}
		if r.Kernel {
			kernels++
		}
		discharged += r.BoundsBase - r.BoundsOpt
	}
	switch {
	case kernels == 0:
		return errors.New("no kernel subjects gated")
	case discharged != a.Discharged:
		return fmt.Errorf("bounds_discharged %d but rows sum to %d", a.Discharged, discharged)
	case a.TVRejected != 0:
		return fmt.Errorf("tv_rejected %d: range passes must never be Rejected", a.TVRejected)
	case !a.TraceParity:
		return errors.New("trace_parity false: attached summaries perturbed an excluded-pass search")
	case a.TraceApp == "":
		return errors.New("missing trace_app")
	}
	return nil
}
