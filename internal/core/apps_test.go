package core_test

import (
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/core"
)

// preparedApp is one registry app after Prepare, on its own optimizer.
type preparedApp struct {
	opt *core.Optimizer
	app *core.App
	p   *core.Prepared
}

// eachPreparedApp prepares every app of the registry in turn and hands it to
// f. One app is live at a time: all 21 prepared at once hold over a GB.
func eachPreparedApp(t *testing.T, f func(preparedApp)) {
	t.Helper()
	for _, spec := range apps.All() {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.New(core.DefaultOptions())
		p, err := opt.Prepare(app)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		f(preparedApp{opt: opt, app: app, p: p})
	}
}

// TestOnlineCyclesDeterministic: two whole-program online runs of the same
// image take the same cycles, under the Android and the -O3 image of every
// app. This is the contract that lets install measure each image once where
// §4 averages ten runs.
func TestOnlineCyclesDeterministic(t *testing.T) {
	eachPreparedApp(t, func(pa preparedApp) {
		for _, img := range []struct {
			name string
			code func() float64
		}{
			{"android", func() float64 { return core.OnlineCycles(pa.app, pa.p.Android) }},
			{"o3", func() float64 { return core.OnlineCycles(pa.app, pa.p.O3Image()) }},
		} {
			a, b := img.code(), img.code()
			if a <= 0 {
				t.Errorf("%s/%s: online run failed", pa.app.Name, img.name)
			} else if a != b {
				t.Errorf("%s/%s: online runs took %.0f and %.0f cycles", pa.app.Name, img.name, a, b)
			}
		}
	})
}

// TestCaptureMultiEveryApp: multi-capture finds at least one snapshot of the
// hot region on every app. On Dhrystone and Svarka Calculator every entry of
// the unforced run is postponed for an imminent GC, so this covers the
// forced-collection run.
func TestCaptureMultiEveryApp(t *testing.T) {
	eachPreparedApp(t, func(pa preparedApp) {
		snaps, err := pa.opt.CaptureMulti(pa.app, pa.p.Android, pa.p.Region.Root, 4)
		if err != nil {
			t.Errorf("%s: %v", pa.app.Name, err)
			return
		}
		if len(snaps) == 0 || len(snaps) > 4 {
			t.Errorf("%s: %d snapshots, want 1 to 4", pa.app.Name, len(snaps))
		}
		for i, s := range snaps {
			if s.Root != pa.p.Region.Root {
				t.Errorf("%s: snapshot %d captured method %d, want region root %d", pa.app.Name, i, s.Root, pa.p.Region.Root)
			}
		}
	})
}
