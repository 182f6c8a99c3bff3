package tv_test

import (
	"testing"

	"replayopt/internal/aot"
	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/profile"
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
