package core

import (
	"os"
	"reflect"
	"testing"

	"replayopt/internal/schema"
	"replayopt/internal/schema/schematest"
)

// TestBenchRejectionParity runs the BENCH_parallel.json rejection corpus
// over the committed artifact.
func TestBenchRejectionParity(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_parallel.json")
	if err != nil {
		t.Fatal(err)
	}
	validate := func(data []byte) error { return schema.Decode(data, new(Bench)) }
	if err := validate(data); err != nil {
		t.Fatalf("committed artifact rejected: %v", err)
	}
	set := func(key string, v any) func(doc map[string]any) {
		return func(doc map[string]any) { doc[key] = v }
	}
	setRow := func(i int, key string, v any) func(doc map[string]any) {
		return func(doc map[string]any) { doc["rows"].([]any)[i].(map[string]any)[key] = v }
	}
	cases := append(schematest.Corpus(t, data, reflect.TypeOf(Bench{})),
		schematest.Corrupt(t, data, "wrong schema version", set("schema_version", 3)),
		schematest.Corrupt(t, data, "wrong benchmark", set("benchmark", "Other")),
		schematest.Corrupt(t, data, "missing app", set("app", "")),
		schematest.Corrupt(t, data, "no max_workers", set("max_workers", 0)),
		schematest.Corrupt(t, data, "no sweep rows", set("rows", []any{})),
		schematest.Corrupt(t, data, "non-positive cell", setRow(0, "evals_per_sec", 0)),
		schematest.Corrupt(t, data, "duplicate cell", setRow(1, "workers", 1)),
		schematest.Corrupt(t, data, "missing serial cell", setRow(0, "workers", 3)),
		schematest.Corrupt(t, data, "missing max_workers cell", set("max_workers", 8)),
		schematest.Corrupt(t, data, "no warm runs", set("warm_runs", 0)),
		schematest.Corrupt(t, data, "no template builds", set("template_builds", 0)),
		schematest.Corrupt(t, data, "fractional warm_runs", set("warm_runs", 550.5)),
		schematest.Corrupt(t, data, "unknown key", set("extra", 1)),
		schematest.Case{Name: "trailing data", Data: append(append([]byte{}, data...), "{}"...)},
	)
	// Recorded against benchlint's loose decode into its own copy of this
	// struct and its validate, which this decode replaced; it rejected every
	// other case.
	schematest.Run(t, validate, cases, map[string]string{
		"cache_hits deleted":                     "key missing from benchlint's copy",
		"cache_hits wrong type":                  "key missing from benchlint's copy",
		"considered deleted":                     "key missing from benchlint's copy",
		"considered wrong type":                  "key missing from benchlint's copy",
		"eval_p50_ms deleted":                    "key missing from benchlint's copy",
		"eval_p50_ms wrong type":                 "key missing from benchlint's copy",
		"eval_p99_ms deleted":                    "key missing from benchlint's copy",
		"eval_p99_ms wrong type":                 "key missing from benchlint's copy",
		"saved_replay_ms deleted":                "key missing from benchlint's copy",
		"saved_replay_ms wrong type":             "key missing from benchlint's copy",
		"generations deleted":                    "key missing from benchlint's copy",
		"generations wrong type":                 "key missing from benchlint's copy",
		"generations[0] wrong type":              "key missing from benchlint's copy",
		"generations[0].gen deleted":             "key missing from benchlint's copy",
		"generations[0].gen wrong type":          "key missing from benchlint's copy",
		"generations[0].evals deleted":           "key missing from benchlint's copy",
		"generations[0].evals wrong type":        "key missing from benchlint's copy",
		"generations[0].cache_hits deleted":      "key missing from benchlint's copy",
		"generations[0].cache_hits wrong type":   "key missing from benchlint's copy",
		"generations[0].eval_p50_ms deleted":     "key missing from benchlint's copy",
		"generations[0].eval_p50_ms wrong type":  "key missing from benchlint's copy",
		"generations[0].eval_p99_ms deleted":     "key missing from benchlint's copy",
		"generations[0].eval_p99_ms wrong type":  "key missing from benchlint's copy",
		"generations[0].best_speedup deleted":    "key missing from benchlint's copy",
		"generations[0].best_speedup wrong type": "key missing from benchlint's copy",
		"clone_p50_ms deleted":                   "missing key",
		"evaluations deleted":                    "missing key",
		"reset_p50_ms deleted":                   "missing key",
		"restore_p50_ms deleted":                 "missing key",
		"scale deleted":                          "missing key",
		"fractional warm_runs":                   "fractional count",
		"unknown key":                            "unknown key",
	})
}
