// Package apps provides the 21 evaluation applications of Table 1 — the
// Scimark suite, the Art benchmark set, and 9 interactive applications —
// written in minic and compiled to dex.
//
// Each app follows the paper's workload character: a replayable hot numeric
// kernel (the capture target), cold setup code, and — for the interactive
// set — a frame/round loop with JNI-analogue graphics, sound, and network
// calls, scripted inputs, and sources of non-determinism that the §3.1
// blocklists must steer around.
//
// Working-set sizes are chosen so per-app capture storage reproduces the
// Fig. 11 spread (smallest ≈ 0.4 MB, largest ≈ 41 MB, most apps 1-5 MB).
// Large states are touched at page stride so captures see every page while
// replays stay cheap.
package apps

import (
	"fmt"

	"replayopt/internal/core"
	"replayopt/internal/minic"
	"replayopt/internal/rt"
)

// Type is the Table-1 application category.
type Type string

// Table 1 categories.
const (
	Scimark     Type = "Scimark"
	Art         Type = "Art"
	Interactive Type = "Interactive"
)

// Spec describes one evaluation application.
type Spec struct {
	Name   string
	Type   Type
	Desc   string
	Source string
	// HeapMB sizes the process heap limit.
	HeapMB uint64
	// Inputs scripts IO.readInput for interactive apps.
	Inputs []int64
	// Seed for the app's native PRNG/clock state.
	Seed uint64
}

// All returns every application in Table 1 order.
func All() []Spec {
	out := make([]Spec, 0, 21)
	out = append(out, scimarkSpecs()...)
	out = append(out, artSpecs()...)
	out = append(out, interactiveSpecs()...)
	return out
}

// ByName returns the named app spec.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Build compiles the app to a core.App.
func Build(s Spec) (*core.App, error) {
	prog, err := minic.CompileSource(s.Name, s.Source)
	if err != nil {
		return nil, fmt.Errorf("apps: compiling %s: %w", s.Name, err)
	}
	heap := s.HeapMB
	if heap == 0 {
		heap = 16
	}
	return &core.App{
		Name:       s.Name,
		Prog:       prog,
		RTConfig:   rt.Config{HeapLimit: heap << 20},
		Inputs:     s.Inputs,
		NativeSeed: s.Seed,
	}, nil
}

// sweepSnippet is the shared page-touch idiom: reading one element per page
// (512 float slots) makes the capture include the whole state while keeping
// replays cheap.
const sweepSnippet = `
func sweep(float[] state) float {
	float acc = 0.0;
	for (int i = 0; i < len(state); i = i + 512) { acc = acc + state[i]; }
	return acc;
}
`

// lcgSnippet is the managed linear congruential generator benchmarks use
// instead of the blocklisted native PRNG (SciMark ships its own Random the
// same way).
const lcgSnippet = `
global int lcgState;
func lcgNext() int {
	lcgState = (lcgState * 1103515245 + 12345) % 2147483648;
	if (lcgState < 0) { lcgState = 0 - lcgState; }
	return lcgState;
}
func lcgFloat() float { return itof(lcgNext() % 1000000) / 1000000.0; }
`
