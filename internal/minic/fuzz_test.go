package minic_test

import (
	"strings"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/minic"
)

// FuzzCompileSource feeds arbitrary text to the minic front end, seeded with
// every evaluation app's source. Bad input must be refused with an error,
// never a panic, and a program minic accepts must pass dex validation: an
// "internal codegen error" means minic emitted bytecode that its type checker
// should have refused.
func FuzzCompileSource(f *testing.F) {
	for _, spec := range apps.All() {
		f.Add(spec.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := minic.CompileSource("fuzz", src); err != nil && strings.Contains(err.Error(), "internal codegen error") {
			t.Fatalf("an accepted program fails dex validation: %v", err)
		}
	})
}
