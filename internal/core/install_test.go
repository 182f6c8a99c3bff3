package core

import (
	"errors"
	"testing"

	"replayopt/internal/lir"
	"replayopt/internal/minic"
)

// TestInstallLockedAcceptsFreshLock proves the ShareJIT-style reuse path: a
// lock cut by one pipeline run installs cleanly on a fresh optimizer — no
// drift, verified replay, and a measured speedup matching the search's own
// region replay.
func TestInstallLockedAcceptsFreshLock(t *testing.T) {
	rep := runPipeline(t, 1)
	if rep.Lock == nil {
		t.Fatal("report carries no policy lock")
	}

	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := New(smallOptions())
	ir, err := opt.InstallLocked(&App{Name: "miniapp", Prog: prog}, rep.Lock)
	if err != nil {
		t.Fatalf("InstallLocked: %v", err)
	}
	if len(ir.StaticDrift) != 0 || len(ir.DynamicDrift) != 0 {
		t.Fatalf("fresh lock drifted: static=%v dynamic=%v", ir.StaticDrift, ir.DynamicDrift)
	}
	if ir.Eval.Outcome.Failed() {
		t.Fatalf("locked install failed replay: %s", ir.Eval.Outcome)
	}
	if ir.Speedup() <= 0 {
		t.Fatalf("speedup = %v", ir.Speedup())
	}
	if ir.Eval.MeanMs != rep.GARegionMs {
		t.Errorf("locked install measured %.6f ms, search reported %.6f ms", ir.Eval.MeanMs, rep.GARegionMs)
	}
}

// TestInstallLockedRefusesStaticDrift tampers a lock so it names a pass the
// compiler does not have: the install must refuse before building anything,
// and the report must carry the drift for display.
func TestInstallLockedRefusesStaticDrift(t *testing.T) {
	rep := runPipeline(t, 1)
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	bad := *rep.Lock
	bad.Passes = append(append([]lir.PassSpec{}, bad.Passes...),
		lir.PassSpec{Name: "no-such-pass"})

	ir, err := New(smallOptions()).InstallLocked(&App{Name: "miniapp", Prog: prog}, &bad)
	if !errors.Is(err, ErrLockDrift) {
		t.Fatalf("err = %v, want ErrLockDrift", err)
	}
	if len(ir.StaticDrift) == 0 {
		t.Fatal("refusal carries no drift records")
	}
	if ir.Eval.Outcome != 0 || ir.AndroidMeanMs != 0 {
		t.Error("refused install still built and measured")
	}
}
