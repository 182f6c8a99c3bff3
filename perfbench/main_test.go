package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks the
// emitted metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny budgets, untraced and traced, and
// checks that each run emits exactly the metrics BENCHMARK.json declares,
// with their units, and that no app failed (failed_frac 0).
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, bw := range bf.Workloads {
		if _, ok := workloadByName(bw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", bw.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			res, err := run(options{workload: w, seed: 1, searchSeed: 1, trace: trace, smoke: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d apps failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, trace, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			if !trace && res.Metrics["passed_frac"].Value != 1 {
				t.Errorf("%s: passed_frac %v, want 1", w.name, res.Metrics["passed_frac"].Value)
			}
		}
	}
}
