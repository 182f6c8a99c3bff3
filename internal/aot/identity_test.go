package aot_test

import (
	"fmt"
	"testing"

	"replayopt/internal/aot"
	"replayopt/internal/apps"
	"replayopt/internal/machine"
)

// TestBaselineIdentity pins the image the Android-baseline compiler builds
// for every evaluation app plus the witness and scratch specs. Every speedup
// of §5 is measured against this image, so a refactor of aot or hgraph that
// changes one instruction of it changes the denominator of every figure.
// Regenerate the table only for an intended change of baseline output.
func TestBaselineIdentity(t *testing.T) {
	want := map[string]string{
		"FFT":                  "52d5190c09287c30",
		"SOR":                  "a81c17298f23a1d7",
		"MonteCarlo":           "92608eada02e2768",
		"Sparse matmult":       "095eca3d4097c171",
		"LU":                   "23be6fe68b0ff091",
		"Sieve":                "2eab4634333f9cfb",
		"BubbleSort":           "c42509ee650c0e09",
		"SelectionSort":        "792d4209fb5816d3",
		"Linpack":              "4e1c2f98f5237ffc",
		"Fibonacci.iter":       "5e2a74f6efed1919",
		"Fibonacci.recv":       "25f1efdb25a9aaef",
		"Dhrystone":            "b15dda837bcb2dfe",
		"MaterialLife":         "5dcbf045768895f8",
		"4inaRow":              "c994dda58a490710",
		"DroidFish":            "a488dd550b77b840",
		"ColorOverflow":        "38fc21e3ff6bc492",
		"Brainstonz":           "9b1c9d921046740d",
		"Blokish":              "6bf9cfaa8003cef9",
		"Svarka Calculator":    "09d386cbbb243be8",
		"Reversi Android":      "b24400b09236945e",
		"Poker Odds (Vitosha)": "651a8bc6ae3d565f",
		"WitnessFilter":        "6c5d95a8249d2817",
		"ScratchFilter":        "25539aa518ad84cb",
	}
	specs := append(apps.All(), apps.WitnessSpec(), apps.ScratchSpec())
	if len(want) != len(specs) {
		t.Errorf("%d recorded digests for %d apps", len(want), len(specs))
	}
	for _, spec := range specs {
		app, err := apps.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		code, err := aot.Compile(app.Prog)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got := fmt.Sprintf("%016x", machine.HashProgram(code)); got != want[spec.Name] {
			t.Errorf("%s: baseline image digest %s, want %s", spec.Name, got, want[spec.Name])
		}
	}
}
