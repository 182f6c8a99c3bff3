package tv_test

import (
	"os"
	"reflect"
	"testing"

	"replayopt/internal/aot"
	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/profile"
	"replayopt/internal/schema"
	"replayopt/internal/schema/schematest"
)

// regionOf profiles one online run of the app and returns its hot region's
// methods (§3.1), the methods the search compiles for every candidate.
func regionOf(b *testing.B, name string) (*dex.Program, []dex.MethodID) {
	b.Helper()
	spec, ok := apps.ByName(name)
	if !ok {
		b.Fatalf("no app %q", name)
	}
	app, err := apps.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	code, err := aot.Compile(app.Prog)
	if err != nil {
		b.Fatal(err)
	}
	prof := profile.NewProfile()
	_, x := app.NewProcessAndExec(code)
	x.SamplePeriod = profile.SamplePeriodCycles
	x.Sampler = prof
	if _, err := x.Call(app.Prog.Entry, nil); err != nil {
		b.Fatal(err)
	}
	region, ok := profile.HotRegion(app.Prog, profile.Analyze(app.Prog), prof)
	if !ok {
		b.Fatalf("%s: no hot region", name)
	}
	return app.Prog, region.Methods
}

// BenchmarkChecker compiles the region methods of the two tv-audit apps at
// O3 under the checker the search attaches with core.Options.TVCheck: every
// pass application is strict-verified and validated against its input.
func BenchmarkChecker(b *testing.B) {
	type subject struct {
		prog    *dex.Program
		methods []dex.MethodID
	}
	var subjects []subject
	for _, name := range []string{"DroidFish", "Svarka Calculator"} {
		prog, methods := regionOf(b, name)
		subjects = append(subjects, subject{prog, methods})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range subjects {
			cfg, _ := lir.Preset("O3")
			cfg.Check = tv.NewChecker(tv.Options{Reject: true, Strict: true})
			if _, err := lir.Compile(s.prog, s.methods, cfg, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestBenchRejectionParity runs the BENCH_tv.json rejection corpus over the
// committed artifact.
func TestBenchRejectionParity(t *testing.T) {
	data, err := os.ReadFile("../../../BENCH_tv.json")
	if err != nil {
		t.Fatal(err)
	}
	validate := func(data []byte) error { return schema.Decode(data, new(tv.Bench)) }
	if err := validate(data); err != nil {
		t.Fatalf("committed artifact rejected: %v", err)
	}
	set := func(key string, v any) func(doc map[string]any) {
		return func(doc map[string]any) { doc[key] = v }
	}
	cases := append(schematest.Corpus(t, data, reflect.TypeOf(tv.Bench{})),
		schematest.Corrupt(t, data, "wrong schema version", set("schema_version", 2)),
		schematest.Corrupt(t, data, "wrong benchmark", set("benchmark", "Other")),
		schematest.Corrupt(t, data, "no preset rows", set("presets", []any{})),
		schematest.Corrupt(t, data, "verified drift", set("verified", 1)),
		schematest.Corrupt(t, data, "unverified drift", set("unverified", 1)),
		schematest.Corrupt(t, data, "duplicate app and preset", func(doc map[string]any) {
			rows := doc["presets"].([]any)
			first := rows[0].(map[string]any)
			doc["presets"] = append(rows, first)
			for _, k := range []string{"verified", "unverified"} {
				doc[k] = doc[k].(float64) + first[k].(float64)
			}
		}),
		schematest.Corrupt(t, data, "unknown key", set("extra", 1)),
		schematest.Case{Name: "trailing data", Data: append(append([]byte{}, data...), "{}"...)},
	)
	// Nothing checked BENCH_tv.json's content before this type: benchlint
	// refused every document, the committed one included, as an unknown
	// benchmark. So no case was accepted before, and no record is kept.
	schematest.Run(t, validate, cases, nil)
}
