package tv_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
)

// auditDigest is the SHA-256 of the tvlint audit report over every app at
// O1, O2 and O3 with the strict checker: the exact bytes `tvlint -json`
// prints. Regenerate it with
//
//	go run ./cmd/tvlint -json | sha256sum
//
// A new value means some pass application's verdict or reason changed; a
// change that only makes validation faster must leave it alone.
const auditDigest = "d29e79935c69393ed5c62878e4c8e8c505eb514bf57f54a0c24592b527c56777"

// TestAuditVerdictParity pins every verdict of the tvlint audit.
func TestAuditVerdictParity(t *testing.T) {
	rep := tv.Report{SchemaVersion: tv.ReportSchemaVersion, Presets: []tv.PresetReport{}}
	for _, spec := range apps.All() {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatalf("building %s: %v", spec.Name, err)
		}
		for _, preset := range []string{"O1", "O2", "O3"} {
			cfg, _ := lir.Preset(preset)
			chk := tv.NewChecker(tv.Options{Strict: true})
			cfg.Check = chk
			if _, err := lir.Compile(app.Prog, nil, cfg, nil, nil); err != nil {
				t.Fatalf("%s at %s: %v", spec.Name, preset, err)
			}
			rep.Presets = append(rep.Presets, tv.PresetFromChecker(spec.Name, preset, chk))
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(data, '\n'))
	if got := hex.EncodeToString(sum[:]); got != auditDigest {
		t.Fatalf("audit report digest %s, want %s: a tv verdict or reason changed", got, auditDigest)
	}
}
