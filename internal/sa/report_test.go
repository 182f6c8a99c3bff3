package sa_test

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/sa"
	"replayopt/internal/schema"
	"replayopt/internal/schema/schematest"
)

// TestReportSchema round-trips the witness app's report through JSON and the
// structural validator — the check salint effects -json runs on its own output —
// then corrupts the document in each way the schema forbids and asserts the
// validator rejects it.
func TestReportSchema(t *testing.T) {
	app, err := apps.Build(apps.WitnessSpec())
	if err != nil {
		t.Fatal(err)
	}
	rep := sa.Analyze(app.Prog).Report("WitnessFilter")
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Decode(data, new(sa.Report)); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	if len(rep.Witnesses) == 0 {
		t.Fatal("witness app produced no witnesses; corruption cases below assume some")
	}

	corrupt := func(name string, mutate func(doc map[string]any), wantErr string) {
		t.Helper()
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		mutate(doc)
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		err = schema.Decode(bad, new(sa.Report))
		if err == nil {
			t.Errorf("%s: corrupted report accepted", name)
			return
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantErr)
		}
	}

	corrupt("wrong schema version", func(doc map[string]any) {
		doc["schema_version"] = sa.ReportSchemaVersion + 1
	}, "schema_version")
	corrupt("missing app", func(doc map[string]any) {
		delete(doc, "app")
	}, "app")
	corrupt("methods not array", func(doc map[string]any) {
		doc["methods"] = "nope"
	}, "methods")
	corrupt("method missing effect", func(doc map[string]any) {
		m := doc["methods"].([]any)[0].(map[string]any)
		delete(m, "effect")
	}, "effect")
	corrupt("replayable with hazards", func(doc map[string]any) {
		m := doc["methods"].([]any)[0].(map[string]any)
		m["replayable"] = true
		m["hazards"] = []any{"IO"}
	}, "hazards")
	corrupt("coverage out of sync", func(doc map[string]any) {
		cov := doc["coverage"].(map[string]any)
		cov["replayable"] = cov["replayable"].(float64) + 1
	}, "coverage.replayable")
	corrupt("empty witness chain", func(doc map[string]any) {
		w := doc["witnesses"].([]any)[0].(map[string]any)
		w["chain"] = []any{}
	}, "chain")
	corrupt("chain not rooted at method", func(doc map[string]any) {
		w := doc["witnesses"].([]any)[0].(map[string]any)
		w["chain"] = []any{"someoneElse"}
	}, "chain")

	if schema.Decode([]byte("{not json"), new(sa.Report)) == nil {
		t.Error("non-JSON accepted")
	}
}

// TestReportRejectionParity runs the report's rejection corpus: every
// corruption TestReportSchema makes, every required key deleted, every field
// given a wrong JSON type, and the numeric cases a typed decode closes.
func TestReportRejectionParity(t *testing.T) {
	app, err := apps.Build(apps.WitnessSpec())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sa.Analyze(app.Prog).Report("WitnessFilter"))
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Decode(data, new(sa.Report)); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	firstMethod := func(doc map[string]any) map[string]any {
		return doc["methods"].([]any)[0].(map[string]any)
	}
	firstWitness := func(doc map[string]any) map[string]any {
		return doc["witnesses"].([]any)[0].(map[string]any)
	}
	cases := append(schematest.Corpus(t, data, reflect.TypeOf(sa.Report{})),
		schematest.Corrupt(t, data, "wrong schema version", func(doc map[string]any) {
			doc["schema_version"] = sa.ReportSchemaVersion + 1
		}),
		schematest.Corrupt(t, data, "missing app", func(doc map[string]any) { delete(doc, "app") }),
		schematest.Corrupt(t, data, "methods not array", func(doc map[string]any) { doc["methods"] = "nope" }),
		schematest.Corrupt(t, data, "method missing effect", func(doc map[string]any) {
			delete(firstMethod(doc), "effect")
		}),
		schematest.Corrupt(t, data, "replayable with hazards", func(doc map[string]any) {
			m := firstMethod(doc)
			m["replayable"] = true
			m["hazards"] = []any{"IO"}
		}),
		schematest.Corrupt(t, data, "coverage out of sync", func(doc map[string]any) {
			cov := doc["coverage"].(map[string]any)
			cov["replayable"] = cov["replayable"].(float64) + 1
		}),
		schematest.Corrupt(t, data, "empty witness chain", func(doc map[string]any) {
			firstWitness(doc)["chain"] = []any{}
		}),
		schematest.Corrupt(t, data, "chain not rooted at method", func(doc map[string]any) {
			firstWitness(doc)["chain"] = []any{"someoneElse"}
		}),
		schematest.Corrupt(t, data, "methods null", func(doc map[string]any) { doc["methods"] = nil }),
		schematest.Corrupt(t, data, "hazards null", func(doc map[string]any) { firstMethod(doc)["hazards"] = nil }),
		schematest.Corrupt(t, data, "unknown key", func(doc map[string]any) { doc["extra"] = 1 }),
		schematest.Corrupt(t, data, "fractional schema_version", func(doc map[string]any) {
			doc["schema_version"] = sa.ReportSchemaVersion + 0.5
		}),
		schematest.Corrupt(t, data, "fractional coverage.methods", func(doc map[string]any) {
			cov := doc["coverage"].(map[string]any)
			cov["methods"] = cov["methods"].(float64) + 0.5
		}),
		schematest.Case{Name: "not JSON", Data: []byte("{not json")},
		schematest.Case{Name: "trailing data", Data: append(append([]byte{}, data...), "{}"...)},
	)
	// Recorded against the map-based validator this decode replaced; it
	// rejected every other case.
	schematest.Run(t, func(data []byte) error { return schema.Decode(data, new(sa.Report)) }, cases, map[string]string{
		"coverage.replayable_pct deleted":    "missing key, optional before",
		"coverage.replayable_pct wrong type": "key unchecked before",
		"witnesses deleted":                  "missing key, optional before",
		"witnesses[0].cause deleted":         "missing key, optional before",
		"witnesses[0].cause wrong type":      "key unchecked before",
		"unknown key":                        "unknown key",
		"fractional schema_version":          "fractional count",
		"fractional coverage.methods":        "fractional count",
	})
}

// TestBenchRejectionParity runs the BENCH_sa.json rejection corpus over the
// committed artifact.
func TestBenchRejectionParity(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_sa.json")
	if err != nil {
		t.Fatal(err)
	}
	validate := func(data []byte) error { return schema.Decode(data, new(sa.Bench)) }
	if err := validate(data); err != nil {
		t.Fatalf("committed artifact rejected: %v", err)
	}
	set := func(key string, v any) func(doc map[string]any) {
		return func(doc map[string]any) { doc[key] = v }
	}
	cases := append(schematest.Corpus(t, data, reflect.TypeOf(sa.Bench{})),
		schematest.Corrupt(t, data, "wrong schema version", set("schema_version", 1)),
		schematest.Corrupt(t, data, "wrong benchmark", set("benchmark", "Other")),
		schematest.Corrupt(t, data, "no app rows", set("apps", []any{})),
		schematest.Corrupt(t, data, "deep_replayable_blocklist drift", set("deep_replayable_blocklist", 999)),
		schematest.Corrupt(t, data, "deep_replayable_effects drift", set("deep_replayable_effects", 999)),
		schematest.Corrupt(t, data, "gcchk_eliminated drift", set("gcchk_eliminated", 999)),
		schematest.Corrupt(t, data, "callv_devirtualized drift", set("callv_devirtualized", 999)),
		schematest.Corrupt(t, data, "duplicate app", func(doc map[string]any) {
			apps := doc["apps"].([]any)
			first := apps[0].(map[string]any)
			doc["apps"] = append(apps, first)
			for _, k := range []string{"deep_replayable_blocklist", "deep_replayable_effects"} {
				doc[k] = doc[k].(float64) + first[k].(float64)
			}
			doc["gcchk_eliminated"] = doc["gcchk_eliminated"].(float64) + first["gcchk_baseline"].(float64) - first["gcchk_effects"].(float64)
			doc["callv_devirtualized"] = doc["callv_devirtualized"].(float64) + first["callv_baseline"].(float64) - first["callv_effects"].(float64)
		}),
		schematest.Corrupt(t, data, "unknown key", set("extra", 1)),
		schematest.Case{Name: "trailing data", Data: append(append([]byte{}, data...), "{}"...)},
	)
	// Nothing checked BENCH_sa.json's content before this type: benchlint
	// refused every document, the committed one included, as an unknown
	// benchmark. So no case was accepted before, and no record is kept.
	schematest.Run(t, validate, cases, nil)
}
