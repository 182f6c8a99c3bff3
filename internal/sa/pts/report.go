package pts

import (
	"errors"
	"fmt"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/sa"
)

// ReportSchemaVersion identifies the salint alias JSON layout. Bump on any
// incompatible change.
const ReportSchemaVersion = 1

// maxWitnesses bounds the unproven-pair obligations listed per hot method;
// the counts always cover every pair.
const maxWitnesses = 12

// Report is the salint alias audit of one app: per method, how many same-kind
// access pairs — the pairs the alias-blind memory passes must assume conflict
// — the points-to analysis proves apart, plus allocation-site escape
// verdicts, with a witness obligation for every hot-region pair it cannot
// separate.
type Report struct {
	SchemaVersion int            `json:"schema_version"`
	App           string         `json:"app"`
	Methods       []MethodReport `json:"methods"`
	Totals        Totals         `json:"totals"`
}

// MethodReport covers one analyzable method that contains at least one
// candidate pair or allocation site.
type MethodReport struct {
	Method string `json:"method"`
	// Hot marks membership in the app's replayable hot region — the code
	// the search actually compiles, where an unproven pair blocks DSE,
	// forwarding, and hoisting on every replay.
	Hot bool `json:"hot"`
	// Pairs counts same-kind access pairs with at least one store (the
	// may-alias assumptions a kind-matching pass makes); Proven the subset
	// the analysis disambiguates.
	Pairs  int `json:"pairs"`
	Proven int `json:"proven"`
	// Sites counts allocation sites, NonEscaping the subset proven local.
	Sites       int       `json:"sites"`
	NonEscaping int       `json:"non_escaping"`
	Witnesses   []Witness `json:"witnesses,omitempty"`
}

// Witness names one unproven hot-region pair with the shape facts the
// analysis did establish, so a reader can see what is missing for the proof.
type Witness struct {
	Block string `json:"block"`
	// Expr is the failed obligation, e.g. "v7 (elem store) ~ v12 (elem
	// load): bases may overlap".
	Expr string `json:"expr"`
}

// Totals aggregates the per-method rows plus the interprocedural summary
// counts (methods whose mod set is narrower than top).
type Totals struct {
	Methods        int `json:"methods"`
	HotMethods     int `json:"hot_methods"`
	Pairs          int `json:"pairs"`
	Proven         int `json:"proven"`
	Sites          int `json:"sites"`
	NonEscaping    int `json:"non_escaping"`
	BoundedMethods int `json:"bounded_methods"`
}

// isStore reports a memory-write access.
func isStore(v *lir.Value) bool {
	switch v.Op {
	case lir.OpArrStore, lir.OpFieldStore, lir.OpStaticStore:
		return true
	}
	return false
}

// isAccess reports any memory load or store.
func isAccess(v *lir.Value) bool {
	switch v.Op {
	case lir.OpArrLoad, lir.OpArrStore, lir.OpFieldLoad, lir.OpFieldStore,
		lir.OpStaticLoad, lir.OpStaticStore:
		return true
	}
	return false
}

// accessKind buckets an access the way the blind passes do (array element,
// field, static) — pairs across buckets were never assumed to conflict.
func accessKind(v *lir.Value) int {
	switch v.Op {
	case lir.OpArrLoad, lir.OpArrStore:
		return 0
	case lir.OpFieldLoad, lir.OpFieldStore:
		return 1
	}
	return 2
}

// BuildReport audits static.Prog under the summaries already attached to
// static (call Attach first). hot lists the method ids of the app's hot
// region (nil when the app has none). Deterministic: methods by id, accesses
// and pairs in program order.
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
		fx := lir.AnalyzeAlias(f, static)
		mr := MethodReport{Method: m.Name, Hot: inHot[dex.MethodID(i)]}

		type acc struct {
			v *lir.Value
			b *lir.Block
		}
		var accesses []acc
		for _, b := range f.Blocks {
			for _, v := range b.Insns {
				if isAccess(v) {
					accesses = append(accesses, acc{v, b})
				}
				if v.Op == lir.OpNewArray || v.Op == lir.OpNewObject {
					mr.Sites++
					if !fx.Escapes(v) {
						mr.NonEscaping++
					}
				}
			}
		}
		for x := 0; x < len(accesses); x++ {
			for y := x + 1; y < len(accesses); y++ {
				a, b := accesses[x], accesses[y]
				if !isStore(a.v) && !isStore(b.v) {
					continue
				}
				if accessKind(a.v) != accessKind(b.v) {
					continue
				}
				mr.Pairs++
				if !fx.MayAlias(a.v, b.v) {
					mr.Proven++
				} else if mr.Hot && len(mr.Witnesses) < maxWitnesses {
					mr.Witnesses = append(mr.Witnesses, Witness{
						Block: fmt.Sprintf("b%d", a.b.ID),
						Expr:  witnessExpr(a.v, b.v),
					})
				}
			}
		}
		if mr.Pairs == 0 && mr.Sites == 0 {
			continue
		}
		rep.Methods = append(rep.Methods, mr)
		rep.Totals.add(mr)
	}
	_, _, rep.Totals.BoundedMethods = Stats(static.Alias)
	return rep
}

// witnessExpr renders the unmet obligation of one pair: the access shapes and
// why they could not be separated.
func witnessExpr(a, b *lir.Value) string {
	role := func(v *lir.Value) string {
		k := [...]string{"elem", "field", "static"}[accessKind(v)]
		if isStore(v) {
			return k + " store"
		}
		return k + " load"
	}
	reason := "bases may overlap"
	if accessKind(a) == 2 {
		reason = "same static slot"
	}
	return fmt.Sprintf("v%d (%s) ~ v%d (%s): %s", a.ID, role(a), b.ID, role(b), reason)
}

// add folds one method row into the totals.
func (t *Totals) add(m MethodReport) {
	t.Methods++
	if m.Hot {
		t.HotMethods++
	}
	t.Pairs += m.Pairs
	t.Proven += m.Proven
	t.Sites += m.Sites
	t.NonEscaping += m.NonEscaping
}

// Check enforces the report's cross-field invariants: the schema version,
// nonnegative counts, no row proving more than it has, and totals that
// reconcile with the rows.
func (r *Report) Check() error {
	if r.SchemaVersion != ReportSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	var rows Totals
	for i, m := range r.Methods {
		if min(m.Pairs, m.Proven, m.Sites, m.NonEscaping) < 0 {
			return fmt.Errorf("methods[%d]: counts must be nonnegative", i)
		}
		if m.Proven > m.Pairs || m.NonEscaping > m.Sites {
			return fmt.Errorf("methods[%d] proves more than it has", i)
		}
		rows.add(m)
	}
	t := r.Totals
	if t.BoundedMethods < 0 {
		return errors.New("totals.bounded_methods must be nonnegative")
	}
	for _, c := range [...]struct {
		key       string
		got, want int
	}{
		{"methods", t.Methods, rows.Methods},
		{"hot_methods", t.HotMethods, rows.HotMethods},
		{"pairs", t.Pairs, rows.Pairs},
		{"proven", t.Proven, rows.Proven},
		{"sites", t.Sites, rows.Sites},
		{"non_escaping", t.NonEscaping, rows.NonEscaping},
	} {
		if c.got != c.want {
			return fmt.Errorf("totals.%s = %d but rows sum to %d", c.key, c.got, c.want)
		}
	}
	return nil
}
