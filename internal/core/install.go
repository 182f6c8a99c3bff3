// The lock-validated install path — the receiving half of the Fig. 6 loop.
// A device (or the fleet artifact cache acting for one) holds a policy lock
// cut by an earlier search and wants the binary it pins, not a new search.
// Installing means: audit the lock against today's compiler, refuse on
// static drift (the decision sequence no longer rebuilds, so the cached
// winner would silently miscompile), rebuild the region from the locked
// configuration, and prove it by replay before anything ships.

package core

import (
	"errors"
	"fmt"

	"replayopt/internal/ga"
	"replayopt/internal/lir/rtrace"
)

// ErrLockDrift is returned (wrapped) by InstallLocked when the lock's
// decision sequence no longer rebuilds against the current compiler. The
// InstallReport still carries the drift records for display.
var ErrLockDrift = errors.New("core: policy lock drifted statically")

// ErrLockFailedReplay is returned (wrapped) when the locked configuration
// rebuilt but its binary no longer passes verified replay.
var ErrLockFailedReplay = errors.New("core: locked configuration failed replay")

// InstallReport is the outcome of a lock-validated install.
type InstallReport struct {
	App string
	// StaticDrift is fatal: non-empty means nothing was built.
	StaticDrift []rtrace.Drift
	// DynamicDrift is advisory: decisions that no longer fire or an image
	// fingerprint change. The install proceeds — replay is the arbiter of
	// whether the drifted policy is still correct — but operators should
	// treat it as a signal to re-search.
	DynamicDrift []rtrace.Drift

	// Eval is the verified replay measurement of the locked configuration.
	Eval ga.Evaluation
	// Baseline region replays, for the speedup headline.
	AndroidMeanMs float64
	O3MeanMs      float64
}

// Speedup is the locked policy's region speedup over the Android baseline.
func (r *InstallReport) Speedup() float64 {
	if r.Eval.MeanMs <= 0 {
		return 0
	}
	return r.AndroidMeanMs / r.Eval.MeanMs
}

// InstallLocked applies a saved policy lock to app without searching: audit,
// rebuild, replay, measure. It is the programmatic form of the CLI's
// -replay-lock path and the validation a fleet artifact-cache hit runs
// before a binary is handed to a device.
//
// Error discipline: static drift wraps ErrLockDrift (report carries the
// drift records); a replay failure wraps ErrLockFailedReplay. Dynamic drift
// never fails the install by itself.
func (o *Optimizer) InstallLocked(app *App, l *rtrace.Lock) (*InstallReport, error) {
	rep := &InstallReport{App: app.Name}
	if drifts := rtrace.CheckLock(l); len(drifts) > 0 {
		rep.StaticDrift = drifts
		return rep, fmt.Errorf("%w: %d drift(s), first: [%s] %s",
			ErrLockDrift, len(drifts), drifts[0].Kind, drifts[0].Detail)
	}
	p, err := o.Prepare(app)
	if err != nil {
		return rep, err
	}
	rep.AndroidMeanMs = p.AndroidEval.MeanMs
	rep.O3MeanMs = p.O3Eval.MeanMs
	drifts, code := rtrace.CheckLockDynamic(l, app.Prog, p.Region.Methods, p.TypeProf, p.Analysis.Effects)
	rep.DynamicDrift = drifts
	if code == nil {
		// CheckLock passed above, so the one drift is the compile error.
		return rep, fmt.Errorf("%w: stopped compiling: %s", ErrLockDrift, drifts[0].Detail)
	}
	ev, _ := p.EvaluateImage(overlay(p.Android, code))
	rep.Eval = ev
	if ev.Outcome.Failed() {
		return rep, fmt.Errorf("%w: outcome %s", ErrLockFailedReplay, ev.Outcome)
	}
	return rep, nil
}
