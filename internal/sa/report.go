package sa

// Machine-readable reporting for salint effects: per-method verdict rows,
// coverage totals, and witness chains for every reachable non-replayable
// method.

import (
	"errors"
	"fmt"

	"replayopt/internal/dex"
)

// ReportSchemaVersion is bumped whenever the JSON layout changes shape.
const ReportSchemaVersion = 1

// Report is the salint effects output for one program.
type Report struct {
	SchemaVersion int             `json:"schema_version"`
	App           string          `json:"app"`
	Methods       []MethodReport  `json:"methods"`
	Coverage      Coverage        `json:"coverage"`
	Witnesses     []WitnessReport `json:"witnesses"`
}

// MethodReport is one per-method verdict row.
type MethodReport struct {
	Name string `json:"name"`
	// Effect is the interprocedural summary, Local the method's own
	// instructions only.
	Effect     string   `json:"effect"`
	Local      string   `json:"local_effect"`
	Class      string   `json:"class"`
	Hazards    []string `json:"hazards"`
	Replayable bool     `json:"replayable"`
	// Reachable under the RTA call graph from the program entry.
	Reachable bool `json:"reachable"`
}

// Coverage aggregates the verdicts.
type Coverage struct {
	Methods             int     `json:"methods"`
	Replayable          int     `json:"replayable"`
	ReplayablePct       float64 `json:"replayable_pct"`
	Reachable           int     `json:"reachable"`
	ReachableReplayable int     `json:"reachable_replayable"`
}

// add counts one verdict row; ReplayablePct is left to the caller.
func (c *Coverage) add(m MethodReport) {
	c.Methods++
	if m.Replayable {
		c.Replayable++
	}
	if m.Reachable {
		c.Reachable++
		if m.Replayable {
			c.ReachableReplayable++
		}
	}
}

// WitnessReport explains one hazard of one reachable method: the shortest
// call chain to the instruction-level source.
type WitnessReport struct {
	Method string   `json:"method"`
	Hazard string   `json:"hazard"`
	Chain  []string `json:"chain"`
	Cause  string   `json:"cause"`
}

// Report builds the salint effects report from an analysis result.
func (r *Result) Report(app string) *Report {
	rep := &Report{SchemaVersion: ReportSchemaVersion, App: app}
	name := func(id dex.MethodID) string { return r.Prog.Methods[id].Name }
	for id := range r.Prog.Methods {
		sum := r.Summary[id]
		mr := MethodReport{
			Name:       r.Prog.Methods[id].Name,
			Effect:     sum.String(),
			Local:      r.Local[id].String(),
			Class:      sum.Class().String(),
			Hazards:    []string{},
			Replayable: sum.Replayable(),
			Reachable:  r.Graph.Reachable[id],
		}
		for _, h := range sum.Hazards() {
			mr.Hazards = append(mr.Hazards, h.BitName())
		}
		rep.Methods = append(rep.Methods, mr)
		rep.Coverage.add(mr)
		if mr.Reachable && !mr.Replayable {
			for _, h := range sum.Hazards() {
				w := WitnessReport{Method: mr.Name, Hazard: h.BitName()}
				for _, hop := range r.Witness(dex.MethodID(id), h) {
					w.Chain = append(w.Chain, name(hop))
				}
				if len(w.Chain) > 0 {
					w.Cause = r.LocalCause(r.witnessEnd(dex.MethodID(id), h), h)
				}
				rep.Witnesses = append(rep.Witnesses, w)
			}
		}
	}
	if rep.Coverage.Methods > 0 {
		rep.Coverage.ReplayablePct =
			100 * float64(rep.Coverage.Replayable) / float64(rep.Coverage.Methods)
	}
	return rep
}

// witnessEnd returns the final method of id's witness chain for hazard (the
// local source), or id itself when there is no chain.
func (r *Result) witnessEnd(id dex.MethodID, hazard Effect) dex.MethodID {
	chain := r.Witness(id, hazard)
	if len(chain) == 0 {
		return id
	}
	return chain[len(chain)-1]
}

// Check enforces the report's cross-field invariants: the schema version,
// non-empty names, arrays where the schema promises them, no replayable row
// that lists hazards, coverage totals that reconcile with the rows, and
// witness chains that are non-empty and start at their method.
func (r *Report) Check() error {
	if r.SchemaVersion != ReportSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	if r.App == "" {
		return errors.New("app is empty")
	}
	if r.Methods == nil {
		return errors.New("methods is not an array")
	}
	var rows Coverage
	for i, m := range r.Methods {
		for _, f := range [...]struct{ key, val string }{
			{"name", m.Name}, {"effect", m.Effect}, {"local_effect", m.Local}, {"class", m.Class},
		} {
			if f.val == "" {
				return fmt.Errorf("methods[%d].%s is empty", i, f.key)
			}
		}
		if m.Hazards == nil {
			return fmt.Errorf("methods[%d].hazards is not an array", i)
		}
		if m.Replayable && len(m.Hazards) > 0 {
			return fmt.Errorf("methods[%d] replayable yet lists hazards", i)
		}
		rows.add(m)
	}
	for _, c := range [...]struct {
		key       string
		got, want int
	}{
		{"methods", r.Coverage.Methods, rows.Methods},
		{"replayable", r.Coverage.Replayable, rows.Replayable},
		{"reachable", r.Coverage.Reachable, rows.Reachable},
		{"reachable_replayable", r.Coverage.ReachableReplayable, rows.ReachableReplayable},
	} {
		if c.got != c.want {
			return fmt.Errorf("coverage.%s = %d, rows say %d", c.key, c.got, c.want)
		}
	}
	for i, w := range r.Witnesses {
		switch {
		case w.Method == "":
			return fmt.Errorf("witnesses[%d].method is empty", i)
		case w.Hazard == "":
			return fmt.Errorf("witnesses[%d].hazard is empty", i)
		case len(w.Chain) == 0:
			return fmt.Errorf("witnesses[%d].chain is empty", i)
		case w.Chain[0] != w.Method:
			return fmt.Errorf("witnesses[%d].chain starts at %q, not %q", i, w.Chain[0], w.Method)
		}
	}
	return nil
}
