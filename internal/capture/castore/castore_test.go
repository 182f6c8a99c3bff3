package castore

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"replayopt/internal/schema"
	"replayopt/internal/schema/schematest"
)

// page builds a deterministic 4 KiB test page.
func page(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	p := make([]byte, 4096)
	// Sparse-ish content so compression has something to do.
	for i := 0; i < len(p); i += 16 {
		p[i] = byte(rng.Intn(256))
	}
	return p
}

// writeStore writes a store with two snapshots sharing one page, plus a
// boot table, and returns the path and the manifest digests.
func writeStore(t *testing.T) (string, []Key) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.cas")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	shared := page(1)
	k1, wrote, err := w.PutChunk(shared)
	if err != nil || !wrote {
		t.Fatalf("PutChunk shared: wrote=%v err=%v", wrote, err)
	}
	k2, _, err := w.PutChunk(page(2))
	if err != nil {
		t.Fatal(err)
	}
	k3, _, err := w.PutChunk(page(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, wrote, _ := w.PutChunk(shared); wrote {
		t.Fatal("identical chunk written twice")
	}
	d1, _, err := w.PutManifest([]byte("meta-1"), []PageRef{{Addr: 0x1000, Key: k1}, {Addr: 0x2000, Key: k2}})
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := w.PutManifest([]byte("meta-2"), []PageRef{{Addr: 0x1000, Key: k1}, {Addr: 0x3000, Key: k3}})
	if err != nil {
		t.Fatal(err)
	}
	kb, _, err := w.PutChunk(page(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutIndex([]Key{d1, d2}, []PageRef{{Addr: 0x9000, Key: kb}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, []Key{d1, d2}
}

func TestRoundTrip(t *testing.T) {
	path, digests := writeStore(t)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scan.DamagedRecords != 0 || f.Scan.TruncatedTailBytes != 0 {
		t.Fatalf("clean store scanned dirty: %+v", f.Scan)
	}
	snaps := f.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	for i, s := range snaps {
		if s.Digest != digests[i] {
			t.Errorf("snapshot %d digest mismatch", i)
		}
		if !s.Complete {
			t.Errorf("snapshot %d incomplete", i)
		}
	}
	got, err := f.ReadChunks(snaps[0].Pages)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0x1000], page(1)) || !bytes.Equal(got[0x2000], page(2)) {
		t.Error("chunk contents diverged")
	}
	if len(f.Boot()) != 1 {
		t.Fatalf("%d boot refs", len(f.Boot()))
	}
	boot, err := f.ReadChunk(f.Boot()[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(boot, page(9)) {
		t.Error("boot chunk diverged")
	}
}

func TestIncrementalAppendDedups(t *testing.T) {
	path, digests := writeStore(t)
	before, _ := os.Stat(path)

	// A second session persisting an overlapping snapshot appends only the
	// genuinely new chunk plus bookkeeping records.
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	k1, wrote, err := w.PutChunk(page(1))
	if err != nil {
		t.Fatal(err)
	}
	if wrote {
		t.Error("cross-session dedup failed: shared chunk rewritten")
	}
	kNew, wrote, err := w.PutChunk(page(42))
	if err != nil || !wrote {
		t.Fatalf("new chunk not written: %v", err)
	}
	d3, _, err := w.PutManifest([]byte("meta-3"), []PageRef{{Addr: 0x1000, Key: k1}, {Addr: 0x4000, Key: kNew}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutIndex(append(digests, d3), nil); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.ChunksReused != 1 || st.ChunksWritten != 1 {
		t.Errorf("reused=%d written=%d", st.ChunksReused, st.ChunksWritten)
	}
	if st.BytesReused != 4096 {
		t.Errorf("BytesReused = %d", st.BytesReused)
	}
	after, _ := os.Stat(path)
	appended := after.Size() - before.Size()
	if appended != st.AppendedBytes {
		t.Errorf("stats say %d appended, file grew %d", st.AppendedBytes, appended)
	}
	if appended >= 2*4096 {
		t.Errorf("append of one shared + one new page grew the file by %d bytes", appended)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots()) != 3 {
		t.Fatalf("%d snapshots after incremental append", len(f.Snapshots()))
	}
}

func TestReportAndValidate(t *testing.T) {
	path, _ := writeStore(t)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(f, func(meta []byte) string { return string(meta) })
	if !rep.Healthy() {
		t.Fatalf("clean store reported unhealthy: %+v", rep)
	}
	if rep.Snapshots[0].App != "meta-1" {
		t.Errorf("app label %q", rep.Snapshots[0].App)
	}
	// Two snapshots share page(1): the dedup ratio over referenced bytes
	// must exceed 1.
	if rep.DedupRatio <= 1.0 {
		t.Errorf("dedup ratio %.3f for a store with a shared chunk", rep.DedupRatio)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Decode(data, new(Report)); err != nil {
		t.Fatalf("own report fails validation: %v", err)
	}
	for _, bad := range []string{
		`{}`,
		`{"schema_version":99}`,
		`{"schema_version":1,"path":""}`,
	} {
		if err := schema.Decode([]byte(bad), new(Report)); err == nil {
			t.Errorf("validator accepted %s", bad)
		}
	}
}

func TestOpenRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty); err == nil {
		t.Error("Open accepted an empty file")
	}
	foreign := filepath.Join(dir, "foreign")
	os.WriteFile(foreign, []byte("this is not a store"), 0o644)
	if _, err := Open(foreign); err == nil {
		t.Error("Open accepted a foreign file")
	}
	badver := filepath.Join(dir, "badver")
	os.WriteFile(badver, append([]byte(Magic), 0x7f), 0o644)
	if _, err := Open(badver); err == nil {
		t.Error("Open accepted an unsupported version byte")
	}
	if _, err := OpenWriter(foreign); err == nil {
		t.Error("OpenWriter accepted a foreign file")
	}
}

// TestReportRejectionParity runs the storelint report's rejection corpus:
// every corruption TestReportAndValidate makes, every required key deleted,
// every field given a wrong JSON type, and the numeric cases a typed decode
// closes.
func TestReportRejectionParity(t *testing.T) {
	path, _ := writeStore(t)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(BuildReport(f, func(meta []byte) string { return string(meta) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Decode(data, new(Report)); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	firstSnap := func(doc map[string]any) map[string]any {
		return doc["snapshots"].([]any)[0].(map[string]any)
	}
	cases := append(schematest.Corpus(t, data, reflect.TypeOf(Report{})),
		schematest.Case{Name: "empty object", Data: []byte(`{}`)},
		schematest.Case{Name: "bare wrong version", Data: []byte(`{"schema_version":99}`)},
		schematest.Case{Name: "bare empty path", Data: []byte(`{"schema_version":1,"path":""}`)},
		schematest.Corrupt(t, data, "empty digest", func(doc map[string]any) { firstSnap(doc)["digest"] = "" }),
		schematest.Corrupt(t, data, "incomplete snapshot not skipped", func(doc map[string]any) {
			firstSnap(doc)["complete"] = false
		}),
		schematest.Corrupt(t, data, "fractional schema_version", func(doc map[string]any) {
			doc["schema_version"] = ReportSchemaVersion + 0.5
		}),
		schematest.Corrupt(t, data, "fractional records", func(doc map[string]any) { doc["records"] = 2.5 }),
		schematest.Corrupt(t, data, "negative records", func(doc map[string]any) { doc["records"] = -1 }),
		schematest.Corrupt(t, data, "negative file_bytes", func(doc map[string]any) { doc["file_bytes"] = -1 }),
		schematest.Corrupt(t, data, "negative dedup_ratio", func(doc map[string]any) { doc["dedup_ratio"] = -1 }),
		schematest.Corrupt(t, data, "negative pages", func(doc map[string]any) { firstSnap(doc)["pages"] = -1 }),
		schematest.Corrupt(t, data, "negative missing_chunks", func(doc map[string]any) {
			firstSnap(doc)["missing_chunks"] = -1
		}),
		schematest.Corrupt(t, data, "unknown key", func(doc map[string]any) { firstSnap(doc)["extra"] = 1 }),
		schematest.Case{Name: "trailing data", Data: append(append([]byte{}, data...), "{}"...)},
	)
	// Recorded against the map-based validator this decode replaced; it
	// rejected every other case.
	schematest.Run(t, func(data []byte) error { return schema.Decode(data, new(Report)) }, cases, map[string]string{
		"snapshots[0].app deleted":    "missing key, optional before",
		"snapshots[0].app wrong type": "key unchecked before",
		"fractional schema_version":   "fractional schema_version",
		"fractional records":          "fractional count",
		"negative records":            "negative count",
		"negative file_bytes":         "negative count",
		"negative dedup_ratio":        "negative count",
		"negative pages":              "negative count",
		"negative missing_chunks":     "negative count",
		"unknown key":                 "unknown key",
	})
}

// TestBenchRejectionParity runs the BENCH_store.json rejection corpus over
// the committed artifact's values.
func TestBenchRejectionParity(t *testing.T) {
	data, err := json.Marshal(Bench{
		Benchmark: "SnapshotStore", Captures: 4, CastoreBytes: 84577, ChunksReused: 3371,
		ChunksUnique: 17, CorruptionTrials: 20, DedupRatio: 199.29, LegacyBytes: 196114,
		LoadMs: 3.19, MaterializeMs: 2.82, RawPageBytes: 13877248, RecoveryRate: 0.75,
		SaveMs: 99.48, SchemaVersion: BenchSchemaVersion, TornTailRecovered: true,
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
		schematest.Corrupt(t, data, "recovery_rate above 1", set("recovery_rate", 1.5)),
		schematest.Corrupt(t, data, "castore_bytes zero", set("castore_bytes", 0)),
		schematest.Corrupt(t, data, "castore not smaller than legacy", set("castore_bytes", 196114)),
		schematest.Corrupt(t, data, "fractional schema_version", set("schema_version", 1.5)),
		schematest.Corrupt(t, data, "fractional captures", set("captures", 4.5)),
		schematest.Corrupt(t, data, "negative chunks_reused", set("chunks_reused", -1)),
		schematest.Corrupt(t, data, "unknown key", set("extra", 1)),
		schematest.Case{Name: "trailing data", Data: append(append([]byte{}, data...), "{}"...)},
	)
	// Recorded against the map-based validator this decode replaced; it
	// rejected every other case.
	schematest.Run(t, validate, cases, map[string]string{
		"fractional schema_version": "fractional schema_version",
		"fractional captures":       "fractional count",
		"negative chunks_reused":    "negative count",
		"unknown key":               "unknown key",
	})
}
