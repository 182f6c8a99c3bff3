package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedArtifacts decodes every committed BENCH_*.json through the
// dispatch table, requires a committed artifact for every table entry, and
// runs each -compare pairing of an artifact against itself.
func TestCommittedArtifacts(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{"SearchParallel": true, "AliasAnalysis": true, "Fleet": true}
	seen := map[string]bool{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := parse(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		var probe struct {
			Benchmark string `json:"benchmark"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			t.Fatal(err)
		}
		seen[probe.Benchmark] = true
		want := errIncomparable
		if gated[probe.Benchmark] {
			want = nil
		}
		if err := compareDocs(doc, doc, 0, false); !errors.Is(err, want) {
			t.Errorf("%s: -compare against itself: %v, want %v", path, err, want)
		}
	}
	for name := range artifacts { //detlint:allow map-range — error reporting only
		if !seen[name] {
			t.Errorf("no committed artifact for benchmark %s", name)
		}
	}
}
