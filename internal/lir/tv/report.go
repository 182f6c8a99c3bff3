package tv

// Machine-readable reporting for cmd/tvlint.

import (
	"errors"
	"fmt"
)

// ReportSchemaVersion is bumped whenever the JSON layout changes shape.
const ReportSchemaVersion = 2

// Report is the tvlint output.
type Report struct {
	SchemaVersion int            `json:"schema_version"`
	Presets       []PresetReport `json:"presets"`
}

// PresetReport is one (app, preset) audit: every per-pass verdict plus the
// tallies.
type PresetReport struct {
	App        string       `json:"app"`
	Preset     string       `json:"preset"`
	Verdicts   []VerdictRow `json:"verdicts"`
	Verified   int          `json:"verified"`
	Unverified int          `json:"unverified"`
	Rejected   int          `json:"rejected"`
}

// VerdictRow is one pass application on one function.
type VerdictRow struct {
	Fn      string `json:"fn"`
	Pass    string `json:"pass"`
	Verdict string `json:"verdict"`
	Reason  string `json:"reason,omitempty"`
}

// PresetFromChecker builds a PresetReport from a finished checker.
func PresetFromChecker(app, preset string, c *Checker) PresetReport {
	pr := PresetReport{App: app, Preset: preset, Verdicts: []VerdictRow{}}
	for _, pv := range c.Verdicts {
		pr.Verdicts = append(pr.Verdicts, VerdictRow{
			Fn: pv.Fn, Pass: pv.Pass, Verdict: pv.Verdict.String(), Reason: pv.Reason,
		})
	}
	pr.Verified, pr.Unverified, pr.Rejected = c.Counts()
	return pr
}

// Check enforces the report's cross-field invariants: the schema version,
// arrays where the schema promises them, non-empty names, legal verdict
// strings, and tallies that reconcile with the rows.
func (r *Report) Check() error {
	if r.SchemaVersion != ReportSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	if r.Presets == nil {
		return errors.New("presets is not an array")
	}
	for i, p := range r.Presets {
		if p.App == "" || p.Preset == "" {
			return fmt.Errorf("presets[%d]: app and preset must be non-empty", i)
		}
		if p.Verdicts == nil {
			return fmt.Errorf("presets[%d].verdicts is not an array", i)
		}
		counts := map[string]int{}
		for j, v := range p.Verdicts {
			if v.Fn == "" || v.Pass == "" {
				return fmt.Errorf("presets[%d].verdicts[%d]: fn and pass must be non-empty", i, j)
			}
			switch v.Verdict {
			case "verified", "unverified", "rejected":
				counts[v.Verdict]++
			default:
				return fmt.Errorf("presets[%d].verdicts[%d] has unknown verdict %q", i, j, v.Verdict)
			}
		}
		for _, c := range [...]struct {
			key string
			got int
		}{{"verified", p.Verified}, {"unverified", p.Unverified}, {"rejected", p.Rejected}} {
			if c.got != counts[c.key] {
				return fmt.Errorf("presets[%d].%s = %d, rows say %d", i, c.key, c.got, counts[c.key])
			}
		}
	}
	return nil
}
