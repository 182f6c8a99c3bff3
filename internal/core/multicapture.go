// Multi-capture cross-validation: an extension along the paper's stated
// future-work axis (§3.2 captures "the state of the process" at one region
// entry; §6 discusses generalizing beyond the captured inputs). Interactive
// apps enter their hot region once per frame/move with evolving state, so
// one online run yields many candidate snapshots. Searching on one and
// cross-validating the winner on the others rejects binaries that merely
// memorized the searched input.

package core

import (
	"fmt"

	"replayopt/internal/capture"
	"replayopt/internal/dex"
	"replayopt/internal/machine"
	"replayopt/internal/obs"
	"replayopt/internal/replay"
	"replayopt/internal/verify"
)

// CaptureMulti captures up to n snapshots of the hot region at root, one per
// region entry, within one online run of code; the pipeline's own capture
// is CaptureMulti with n = 1. An entry during which a GC is imminent is
// postponed (§3.2): the region runs normally and the next entry is tried.
// If the whole run postpones every entry — an app whose allocation clock
// hovers below the collection threshold — a second run forces a collection
// before each postponed entry, as the scheduler would request one, and
// captures from there. At least one snapshot comes back, or an error.
func (o *Optimizer) CaptureMulti(app *App, code *machine.Program, root dex.MethodID, n int) ([]*capture.Snapshot, error) {
	n = max(n, 1)
	for _, force := range []bool{false, true} {
		var snaps []*capture.Snapshot
		var capErr error
		_, x := app.NewProcessAndExec(code)
		x.MaxCycles = 50_000_000_000
		hook := &machine.CaptureHook{Method: root}
		hook.Wrap = func(args []uint64, call func() (uint64, error)) (uint64, error) {
			if force && x.Proc.GCImminent() {
				x.Proc.ForceGC()
			}
			var ret uint64
			var runErr error
			snap, err := capture.Capture(x.Proc, o.Dev, o.Store, root, args,
				app.NativeSeed, func() error {
					ret, runErr = call()
					return runErr
				})
			switch {
			case err == capture.ErrGCPostponed:
				// Nothing was touched: run the region and try its next entry.
				hook.Rearm()
				return call()
			case err != nil:
				capErr = err
			default:
				snaps = append(snaps, snap)
				if len(snaps) < n {
					hook.Rearm()
				}
			}
			return ret, runErr
		}
		x.Hook = hook
		if _, err := x.Call(app.Prog.Entry, nil); err != nil {
			return nil, fmt.Errorf("core: online capture run: %w", err)
		}
		if len(snaps) > 0 {
			return snaps, nil
		}
		if capErr != nil {
			return nil, capErr
		}
	}
	return nil, fmt.Errorf("core: no capture succeeded for %s", app.Name)
}

// CrossValidation records how a candidate binary fared on snapshots it was
// not searched on.
type CrossValidation struct {
	// Checked counts the snapshots the binary was replayed against.
	Checked int
	// Passed counts verification successes.
	Passed int
	// Speedups holds the per-snapshot region speedup over the Android
	// baseline (only for passing snapshots).
	Speedups []float64
}

// AllPassed reports whether the binary verified on every snapshot.
func (cv *CrossValidation) AllPassed() bool { return cv.Checked > 0 && cv.Passed == cv.Checked }

// MinSpeedup is the worst observed cross-input speedup (0 if none passed).
func (cv *CrossValidation) MinSpeedup() float64 {
	if len(cv.Speedups) == 0 {
		return 0
	}
	min := cv.Speedups[0]
	for _, s := range cv.Speedups[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// CrossValidate replays a candidate image against extra snapshots: each
// snapshot gets its own interpreted-replay verification map, the candidate
// must verify on all of them, and its cycle counts are compared against the
// Android baseline's on the same snapshot.
func (o *Optimizer) CrossValidate(app *App, android, candidate *machine.Program,
	snaps []*capture.Snapshot) (*CrossValidation, error) {

	span := o.Opts.Obs.Start("crossvalidate", obs.A("app", app.Name), obs.A("snapshots", len(snaps)))
	cv := &CrossValidation{}
	defer func() { span.End(obs.A("checked", cv.Checked), obs.A("passed", cv.Passed)) }()
	for i, snap := range snaps {
		// Cross-validation is a belt-and-braces check on held-out inputs:
		// build the full conservative map (no effect-analysis shrink).
		vmap, _, err := verify.Build(o.Dev, o.Store, snap, app.Prog, nil)
		if err != nil {
			return nil, fmt.Errorf("core: cross-validate snapshot %d: %w", i, err)
		}
		base, err := replay.Run(o.Dev, o.Store, replay.Request{
			Snapshot: snap, Prog: app.Prog, Tier: replay.TierCompiled,
			Code: android, ASLRSeed: int64(1000 + i),
		})
		if err != nil {
			return nil, fmt.Errorf("core: cross-validate baseline replay %d: %w", i, err)
		}
		cv.Checked++
		res, err := replay.Run(o.Dev, o.Store, replay.Request{
			Snapshot: snap, Prog: app.Prog, Tier: replay.TierCompiled,
			Code: candidate, MaxCycles: base.Cycles * 12, ASLRSeed: int64(2000 + i),
		})
		if err != nil {
			continue // crash/timeout on this input: failed
		}
		if vmap.Check(res) != nil {
			continue // wrong output on this input: failed
		}
		cv.Passed++
		if res.Cycles > 0 {
			cv.Speedups = append(cv.Speedups, float64(base.Cycles)/float64(res.Cycles))
		}
	}
	return cv, nil
}

// OptimizeMulti runs the standard pipeline but captures extra snapshots and
// cross-validates the GA winner on the inputs it was not searched on. A
// winner that fails any held-out input is discarded and the baseline kept —
// the same "no negative impact" contract as Optimize, extended across
// inputs.
func (o *Optimizer) OptimizeMulti(app *App, extraCaptures int) (*Report, *CrossValidation, error) {
	rep, p, err := o.optimize(app)
	if err != nil {
		return nil, nil, err
	}
	if rep.KeptBaseline {
		return rep, &CrossValidation{}, nil
	}
	snaps, err := o.CaptureMulti(app, p.Android, rep.Region.Root, extraCaptures)
	if err != nil {
		return nil, nil, err
	}
	cv, err := o.CrossValidate(app, p.Android, rep.installed, snaps)
	if err != nil {
		return nil, nil, err
	}
	if !cv.AllPassed() {
		// The winner memorized the searched input: keep the baseline.
		rep.KeptBaseline = true
		rep.GARegionMs = rep.AndroidRegionMs
		rep.RegionSpeedupGA = 1.0
		rep.SpeedupGA = 1.0
	}
	return rep, cv, nil
}
