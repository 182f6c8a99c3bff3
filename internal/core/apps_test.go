package core_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
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

// TestExecutionIdentity pins, per app, every cycle count and sample that
// prepare and install read off the two execution tiers: the online profile
// (total, per-method and per-native samples), the Android and -O3 region
// replays, both images' whole-program online runs, and the size of the
// verification map the interpreter builds. A change to either tier's cycle
// clock that moves one charge, one sample or one recorded store changes the
// app's digest.
func TestExecutionIdentity(t *testing.T) {
	want := map[string]string{
		"FFT":                  "7d7ba859e1c92406",
		"SOR":                  "7d335688146ad2db",
		"MonteCarlo":           "a52fe32023962a23",
		"Sparse matmult":       "3692f136fff92d69",
		"LU":                   "73b2fee48698fcfa",
		"Sieve":                "e33bf0e1137e9216",
		"BubbleSort":           "885b3ca1f115a756",
		"SelectionSort":        "a71f3756b6b067cc",
		"Linpack":              "249ec1aae8a6002a",
		"Fibonacci.iter":       "e66fb739e2bcfc52",
		"Fibonacci.recv":       "81c8ac006ea2cc98",
		"Dhrystone":            "97f04c8d1475c22a",
		"MaterialLife":         "882c3c7e915f80fd",
		"4inaRow":              "4bdb0a784427b0f7",
		"DroidFish":            "d995bfd698dc5b1e",
		"ColorOverflow":        "bf62ce3f4b2fc9d4",
		"Brainstonz":           "0898deab4b3d9fbf",
		"Blokish":              "24159d999acdfbc7",
		"Svarka Calculator":    "792efc561e6d87eb",
		"Reversi Android":      "bf72f52d4f84d658",
		"Poker Odds (Vitosha)": "3e60cbe74ecc263d",
	}
	if len(want) != len(apps.All()) {
		t.Errorf("%d recorded digests for %d apps", len(want), len(apps.All()))
	}
	eachPreparedApp(t, func(pa preparedApp) {
		h := sha256.New()
		prof := pa.p.Profile
		fmt.Fprintf(h, "total %d\n", prof.Total)
		for _, id := range sortedKeys(prof.Exclusive) {
			fmt.Fprintf(h, "method %d %d\n", id, prof.Exclusive[id])
		}
		for _, id := range sortedKeys(prof.Native) {
			fmt.Fprintf(h, "native %d %d\n", id, prof.Native[id])
		}
		fmt.Fprintf(h, "replay %d %d\n", pa.p.AndroidCycles, pa.p.O3Cycles)
		fmt.Fprintf(h, "online %.0f %.0f\n", core.OnlineCycles(pa.app, pa.p.Android), core.OnlineCycles(pa.app, pa.p.O3Image()))
		fmt.Fprintf(h, "vmap %d\n", pa.p.VMap.Size())
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want[pa.app.Name] {
			t.Errorf("%s: execution digest %s, want %s", pa.app.Name, got, want[pa.app.Name])
		}
	})
}

func sortedKeys[K ~int, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
