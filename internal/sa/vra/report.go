package vra

import (
	"errors"
	"fmt"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/sa"
)

// ReportSchemaVersion identifies the salint range JSON layout. Bump on any
// incompatible change.
const ReportSchemaVersion = 1

// Report is the salint range audit of one app: per method, how many of the
// frontend's bounds checks and divide trap guards the range analysis proves
// redundant, with a witness expression for every hot-region check it cannot.
type Report struct {
	SchemaVersion int            `json:"schema_version"`
	App           string         `json:"app"`
	Methods       []MethodReport `json:"methods"`
	Totals        Totals         `json:"totals"`
}

// MethodReport covers one analyzable method that contains at least one
// bounds check or divide site.
type MethodReport struct {
	Method string `json:"method"`
	// Hot marks membership in the app's replayable hot region — the code
	// the search actually compiles, where an undischarged check costs
	// cycles on every replay.
	Hot    bool `json:"hot"`
	Checks int  `json:"checks"`
	Proven int  `json:"proven"`
	// DivSites counts Div/Rem instructions, DivProven the subset whose
	// divisor the analysis proves nonzero (guard removable).
	DivSites  int       `json:"div_sites"`
	DivProven int       `json:"div_proven"`
	Witnesses []Witness `json:"witnesses,omitempty"`
}

// Witness names one unproven hot-region bounds check with the facts the
// analysis did establish, so a reader can see what is missing for the proof.
type Witness struct {
	Block string `json:"block"`
	// Expr is the failed obligation, e.g. "v7 ∈ [0, +inf] !< arrlen(v3)".
	Expr string `json:"expr"`
}

// Totals aggregates the per-method rows plus the interprocedural summary
// counts (parameter/return slots narrower than top).
type Totals struct {
	Methods        int `json:"methods"`
	HotMethods     int `json:"hot_methods"`
	Checks         int `json:"checks"`
	Proven         int `json:"proven"`
	DivSites       int `json:"div_sites"`
	DivProven      int `json:"div_proven"`
	ParamsNarrowed int `json:"params_narrowed"`
	RetsNarrowed   int `json:"rets_narrowed"`
}

// BuildReport audits static.Prog under the summaries already attached to
// static (call Attach first). hot lists the method ids of the app's hot
// region (nil when the app has none). Deterministic: methods by id, sites in
// program order.
func BuildReport(app string, static *sa.Result, hot []dex.MethodID) *Report {
	rep := &Report{SchemaVersion: ReportSchemaVersion, App: app}
	inHot := map[dex.MethodID]bool{}
	for _, id := range hot {
		inHot[id] = true
	}
	for i, m := range static.Prog.Methods {
		if m.Uncompilable {
			continue
		}
		f, err := lir.BuildSSA(static.Prog, dex.MethodID(i))
		if err != nil {
			continue
		}
		ra := lir.AnalyzeRanges(f, static)
		mr := MethodReport{Method: m.Name, Hot: inHot[dex.MethodID(i)]}
		for _, b := range f.Blocks {
			for _, v := range b.Insns {
				switch v.Op {
				case lir.OpBoundsCheck:
					mr.Checks++
					if _, ok := ra.ProvenInBounds(v); ok {
						mr.Proven++
					} else if mr.Hot {
						mr.Witnesses = append(mr.Witnesses, Witness{
							Block: fmt.Sprintf("b%d", b.ID),
							Expr:  witnessExpr(ra, b, v),
						})
					}
				case lir.OpDiv, lir.OpRem:
					mr.DivSites++
					if _, ok := ra.NonZeroAt(b, v.Args[1]); ok {
						mr.DivProven++
					}
				}
			}
		}
		if mr.Checks == 0 && mr.DivSites == 0 {
			continue
		}
		rep.Methods = append(rep.Methods, mr)
		rep.Totals.add(mr)
	}
	rep.Totals.ParamsNarrowed, rep.Totals.RetsNarrowed = Narrowed(static.Ranges)
	return rep
}

// witnessExpr renders the unmet obligation of one bounds check: the index
// range the analysis derived against what it knows about the array length.
func witnessExpr(ra *lir.RangeFacts, b *lir.Block, check *lir.Value) string {
	arr, idx := check.Args[0], check.Args[1]
	length := fmt.Sprintf("arrlen(v%d)", arr.ID)
	if arr.Op == lir.OpNewArray && len(arr.Args) > 0 && arr.Args[0].Op == lir.OpConstInt {
		length = fmt.Sprintf("%d", arr.Args[0].Imm)
	}
	return fmt.Sprintf("v%d ∈ %s !< %s", idx.ID, ra.At(b, idx), length)
}

// add folds one method row into the totals.
func (t *Totals) add(m MethodReport) {
	t.Methods++
	if m.Hot {
		t.HotMethods++
	}
	t.Checks += m.Checks
	t.Proven += m.Proven
	t.DivSites += m.DivSites
	t.DivProven += m.DivProven
}

// Check enforces the report's cross-field invariants: the schema version,
// nonnegative counts, no row proving more sites than it has, and totals
// that reconcile with the rows.
func (r *Report) Check() error {
	if r.SchemaVersion != ReportSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	var rows Totals
	for i, m := range r.Methods {
		if min(m.Checks, m.Proven, m.DivSites, m.DivProven) < 0 {
			return fmt.Errorf("methods[%d]: counts must be nonnegative", i)
		}
		if m.Proven > m.Checks || m.DivProven > m.DivSites {
			return fmt.Errorf("methods[%d] proves more sites than it has", i)
		}
		rows.add(m)
	}
	t := r.Totals
	if min(t.ParamsNarrowed, t.RetsNarrowed) < 0 {
		return errors.New("totals: narrowed counts must be nonnegative")
	}
	for _, c := range [...]struct {
		key       string
		got, want int
	}{
		{"methods", t.Methods, rows.Methods},
		{"hot_methods", t.HotMethods, rows.HotMethods},
		{"checks", t.Checks, rows.Checks},
		{"proven", t.Proven, rows.Proven},
		{"div_sites", t.DivSites, rows.DivSites},
		{"div_proven", t.DivProven, rows.DivProven},
	} {
		if c.got != c.want {
			return fmt.Errorf("totals.%s = %d but rows sum to %d", c.key, c.got, c.want)
		}
	}
	return nil
}
