package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"replayopt/internal/schema"
	"replayopt/internal/schema/schematest"
)

// TestBenchRejectionParity runs the BENCH_fleet.json rejection corpus over
// the committed artifact's values.
func TestBenchRejectionParity(t *testing.T) {
	data, err := json.Marshal(Bench{
		SchemaVersion: BenchSchemaVersion, Benchmark: "Fleet", Devices: 1000, Apps: 2, DeviceClasses: 2,
		Uploads: 1000, UploadsPerSec: 72.38, UploadBytes: 59190366, DedupFactor: 4.94,
		SearchesRun: 4, SearchesPerHr: 1042.21, ArtifactRequests: 1000, ArtifactHits: 1000, CacheHitRatio: 1,
		Sweep: []BenchSweepRow{
			{Concurrency: 1, Uploads: 250, UploadsPerSec: 52.17}, {Concurrency: 4, Uploads: 250, UploadsPerSec: 92.12},
			{Concurrency: 16, Uploads: 250, UploadsPerSec: 76.82}, {Concurrency: 64, Uploads: 250, UploadsPerSec: 81.81},
		},
		WallMs: 14481,
	})
	if err != nil {
		t.Fatal(err)
	}
	validate := func(data []byte) error { return schema.Decode(data, new(Bench)) }
	if err := validate(data); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
	set := func(key string, v any) func(doc map[string]any) {
		return func(doc map[string]any) { doc[key] = v }
	}
	cases := append(schematest.Corpus(t, data, reflect.TypeOf(Bench{})),
		schematest.Corrupt(t, data, "wrong schema version", set("schema_version", 2)),
		schematest.Corrupt(t, data, "wrong benchmark", set("benchmark", "Other")),
		schematest.Corrupt(t, data, "no devices", set("devices", 0)),
		schematest.Corrupt(t, data, "uploads exceed devices", set("devices", 999)),
		schematest.Corrupt(t, data, "dedup below 1", set("dedup_factor", 0.5)),
		schematest.Corrupt(t, data, "dropped jobs", set("dropped_jobs", 1)),
		schematest.Corrupt(t, data, "no searches", set("searches_run", 0)),
		schematest.Corrupt(t, data, "searches exceed universe", set("failed_jobs", 1)),
		schematest.Corrupt(t, data, "no fetches", set("artifact_requests", 0)),
		schematest.Corrupt(t, data, "hits exceed requests", set("artifact_hits", 1001)),
		schematest.Corrupt(t, data, "cache_hit_ratio zero", set("cache_hit_ratio", 0)),
		schematest.Corrupt(t, data, "no sweep rows", set("sweep", []any{})),
		schematest.Corrupt(t, data, "null sweep", set("sweep", nil)),
		schematest.Corrupt(t, data, "sweep misses uploads", set("uploads", 999)),
		schematest.Corrupt(t, data, "fractional schema_version", set("schema_version", 1.5)),
		schematest.Corrupt(t, data, "fractional devices", set("devices", 1000.5)),
		schematest.Corrupt(t, data, "null wall_ms", set("wall_ms", nil)),
		schematest.Corrupt(t, data, "unknown key", set("extra", 1)),
		schematest.Case{Name: "trailing data", Data: append(append([]byte{}, data...), "{}"...)},
	)
	// Recorded against benchlint's loose decode into its own copy of this
	// struct, which this decode replaced; it rejected every other case.
	schematest.Run(t, validate, cases, map[string]string{
		"workers deleted":           "key missing from benchlint's copy",
		"workers wrong type":        "key missing from benchlint's copy",
		"upload_bytes deleted":      "missing key",
		"searches_per_hour deleted": "missing key",
		"resumed_evals deleted":     "missing key",
		"dropped_jobs deleted":      "missing key",
		"failed_jobs deleted":       "missing key",
		"artifact_hits deleted":     "missing key",
		"wall_ms deleted":           "missing key",
		"null wall_ms":              "null count",
		"unknown key":               "unknown key",
	})
}
