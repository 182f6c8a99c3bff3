package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"replayopt/internal/lir/rtrace"
	"replayopt/internal/minic"
	"replayopt/internal/obs"
)

// runPipelineRTrace mirrors runPipelineAt with a rewrite-trace destination
// attached, returning the report and the raw trace bytes.
func runPipelineRTrace(t *testing.T, seed int64, parallelism int) (*Report, []byte) {
	t.Helper()
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opts := smallOptions()
	opts.Seed = seed
	opts.GA.Parallelism = parallelism
	opts.RTrace = obs.NewJSONLWriter(&buf)
	opt := New(opts)
	rep, err := opt.Optimize(&App{Name: "miniapp", Prog: prog})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := opts.RTrace.Err(); err != nil {
		t.Fatalf("trace writer: %v", err)
	}
	return rep, buf.Bytes()
}

// TestRTraceLeavesReportIdentical extends the package's standing proof to
// rewrite tracing: attaching a trace destination must not change a single
// reported value — lock included — at any parallelism.
func TestRTraceLeavesReportIdentical(t *testing.T) {
	for _, parallelism := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("parallel=%d", parallelism), func(t *testing.T) {
			plain := runPipelineAt(t, 1, parallelism)
			traced, _ := runPipelineRTrace(t, 1, parallelism)
			a, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(traced)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("report changed under rewrite tracing:\nplain:  %s\ntraced: %s", a, b)
			}
		})
	}
}

// TestWinnerTraceReplaysAndLockHolds is the end-to-end contract: the trace
// the pipeline emits for its winning genome validates, replays to the
// recorded image fingerprint against a re-prepared pipeline, and the policy
// lock in the report audits clean — statically and dynamically — against the
// compiler that cut it.
func TestWinnerTraceReplaysAndLockHolds(t *testing.T) {
	rep, raw := runPipelineRTrace(t, 1, 0)
	if rep.Lock == nil {
		t.Fatal("report carries no policy lock")
	}

	tr, err := rtrace.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("winner trace does not read: %v", err)
	}
	if tr.Trailer == nil {
		t.Fatal("winner trace has no image trailer")
	}
	if got, want := tr.Header.ConfigFingerprint, rtrace.HashString(rep.Best.Fingerprint()); got != want {
		t.Errorf("trace header fingerprint %s != winner %s", got, want)
	}
	if rep.Lock.ConfigFingerprint != tr.Header.ConfigFingerprint {
		t.Errorf("lock fingerprint %s != trace header %s", rep.Lock.ConfigFingerprint, tr.Header.ConfigFingerprint)
	}

	// Re-prepare from the recorded seed: Prepare is deterministic, so the
	// fresh type profile and static analysis are the compile inputs the
	// recorded pipeline used.
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOptions()
	opts.Seed = tr.Header.Seed
	p, err := New(opts).Prepare(&App{Name: "miniapp", Prog: prog})
	if err != nil {
		t.Fatalf("re-Prepare: %v", err)
	}
	res, err := rtrace.Replay(prog, tr, p.TypeProf, p.Analysis.Effects)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatalf("winner trace did not replay to its image fingerprint: %+v", res.Divergence)
	}

	if drifts, _ := rtrace.CheckLockDynamic(rep.Lock, prog, p.Region.Methods, p.TypeProf, p.Analysis.Effects); len(drifts) != 0 {
		t.Errorf("fresh lock drifts against its own compiler: %+v", drifts)
	}
}
