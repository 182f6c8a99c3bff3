package fleet

import (
	"errors"
	"path/filepath"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/ga"
)

// TestKillAndResumeByteIdenticalTrace is the coordinator's headline fault
// property: kill a search mid-flight, resume it from the journal, and the
// final decision trace is byte-identical to a never-interrupted run — the
// resumed search re-ran only the evaluations the dead run never finished.
func TestKillAndResumeByteIdenticalTrace(t *testing.T) {
	spec, ok := apps.ByName(testApp)
	if !ok {
		t.Fatal("test app missing from registry")
	}
	app, err := apps.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{ID: JobID(testApp, "classA"), App: testApp, DeviceClass: "classA"}

	// Reference: uninterrupted run in its own journal dir.
	refDir := t.TempDir()
	ref, err := RunSearch(job, app, refDir, testScale(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	refTrace := ref.Report.Search.DecisionTrace()

	// Killed run: interrupt after two evaluation batches.
	dir := t.TempDir()
	batches := 0
	_, err = RunSearch(job, app, dir, testScale(), func() bool {
		batches++
		return batches > 2
	}, nil)
	if !errors.Is(err, ga.ErrInterrupted) {
		t.Fatalf("killed run: err = %v, want ErrInterrupted", err)
	}
	fj, err := OpenJournal(filepath.Join(dir, job.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	finished := fj.Prior()
	fj.Close()
	if finished == 0 {
		t.Fatal("killed run journaled nothing")
	}
	if finished >= ref.Report.SearchStats.Evaluations {
		t.Fatalf("killed run finished all %d evaluations; interrupt never bit", finished)
	}

	// Resume in the same dir: byte-identical decisions, prefix from disk.
	res, err := RunSearch(job, app, dir, testScale(), nil, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := res.Report.Search.DecisionTrace(); got != refTrace {
		t.Fatalf("resumed decision trace diverged from the uninterrupted reference\nwant %d bytes, got %d bytes",
			len(refTrace), len(got))
	}
	if res.Resumed != finished {
		t.Fatalf("resume loaded %d journal entries, killed run persisted %d", res.Resumed, finished)
	}
	if TraceHash(res.Report.Search) != TraceHash(ref.Report.Search) {
		t.Fatal("trace hashes differ")
	}
	// The rest of the report agrees too — the artifact built from a resumed
	// search is indistinguishable from one built without the crash.
	a := ArtifactFromReport(job, "fp", res)
	b := ArtifactFromReport(job, "fp", ref)
	if a.TraceHash != b.TraceHash || a.Evaluations != b.Evaluations ||
		a.MeanMs != b.MeanMs || a.KeptBaseline != b.KeptBaseline {
		t.Fatalf("artifacts diverged:\nresumed %+v\nref     %+v", a, b)
	}
}

// TestRunSearchSeedsDifferByClass: different device classes genuinely run
// different searches.
func TestRunSearchSeedsDifferByClass(t *testing.T) {
	if ClassSeed(testApp, "classA") == ClassSeed(testApp, "classB") {
		t.Fatal("device classes share a seed")
	}
	if ClassSeed(testApp, "classA") != ClassSeed(testApp, "classA") {
		t.Fatal("seed not stable")
	}
	if ClassSeed(testApp, "classA") < 0 || ClassSeed("SOR", "classB") < 0 {
		t.Fatal("seed negative")
	}
}

// TestInstallLockedAppliesFleetArtifact closes the loop at the device: the
// artifact a coordinator serves installs through core.InstallLocked with no
// drift and a positive measured speedup.
func TestInstallLockedAppliesFleetArtifact(t *testing.T) {
	spec, _ := apps.ByName(testApp)
	app, err := apps.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{ID: JobID(testApp, "classA"), App: testApp, DeviceClass: "classA"}
	out, err := RunSearch(job, app, t.TempDir(), testScale(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	art := ArtifactFromReport(job, "fp", out)
	if art.KeptBaseline {
		t.Skip("search kept the baseline; nothing to install")
	}

	// A "device": fresh app build, same options the search used for its
	// baselines so the replay environment matches.
	devApp, err := apps.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Seed = ClassSeed(testApp, "classA")
	ir, err := core.New(opts).InstallLocked(devApp, art.Lock)
	if err != nil {
		t.Fatalf("InstallLocked on fleet artifact: %v", err)
	}
	if len(ir.StaticDrift) != 0 {
		t.Fatalf("fleet artifact drifted at install: %+v", ir.StaticDrift)
	}
	if ir.Eval.Outcome.Failed() {
		t.Fatalf("fleet artifact failed device replay: %s", ir.Eval.Outcome)
	}
	if ir.Speedup() <= 0 {
		t.Fatalf("speedup %v", ir.Speedup())
	}
}
