package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"replayopt/internal/ga"
	"replayopt/internal/lir"
	"replayopt/internal/minic"
	"replayopt/internal/obs"
)

// runPipelineObs mirrors runPipelineAt with an observability scope attached
// and returns the report plus the collected spans and registry. It also
// checks that the run built exactly two replay templates.
func runPipelineObs(t *testing.T, seed int64, parallelism int) (*Report, *obs.Collect, *obs.Registry) {
	t.Helper()
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collect{}
	sc := obs.New(col)
	opts := smallOptions()
	opts.Seed = seed
	opts.GA.Parallelism = parallelism
	opts.Obs = sc
	opt := New(opts)
	rep, err := opt.Optimize(&App{Name: "miniapp", Prog: prog})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// prepare restores the capture once per canonical ASLR seed, and every
	// worker set of the search clones those two templates.
	if got := sc.Counter("replay.template_builds").Value(); got != 2 {
		t.Errorf("parallelism %d: %d template builds, want 2", parallelism, got)
	}
	return rep, col, sc.Registry()
}

// readBack writes spans through a JSONLWriter and reads them back with
// obs.ReadJSONL, the span trace's one reader, which checks the tree.
func readBack(t *testing.T, spans []obs.SpanData) []obs.SpanData {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	for _, sd := range spans {
		w.SpanEnd(sd)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	return back
}

// TestObsLeavesReportIdentical is the package's core contract: attaching a
// scope must not change a single reported value, serially or in parallel.
func TestObsLeavesReportIdentical(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", parallelism), func(t *testing.T) {
			plain := runPipelineAt(t, 1, parallelism)
			observed, _, _ := runPipelineObs(t, 1, parallelism)
			a, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(observed)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("report changed under observation:\nplain:    %s\nobserved: %s", a, b)
			}
		})
	}
}

func TestObsPipelineSpansAndMetrics(t *testing.T) {
	rep, col, reg := runPipelineObs(t, 1, 0)

	spans := readBack(t, col.Spans())
	counts := map[string]int{}
	for _, sd := range spans {
		counts[sd.Name]++
	}
	for _, name := range []string{
		"pipeline", "prepare", "profile", "capture", "verify", "baselines",
		"search", "ga.generation", "ga.hillclimb", "install",
	} {
		if counts[name] == 0 {
			t.Errorf("span %q missing from trace (got %v)", name, counts)
		}
	}
	if counts["ga.generation"] > smallOptions().GA.Generations {
		t.Errorf("%d generation spans, budget is %d", counts["ga.generation"], smallOptions().GA.Generations)
	}

	// The tree hangs together: every prepare-stage span nests under prepare,
	// which nests under pipeline.
	byName := map[string]obs.SpanData{}
	for _, sd := range spans {
		byName[sd.Name] = sd
	}
	if byName["prepare"].Parent != byName["pipeline"].ID {
		t.Error("prepare span not nested under pipeline")
	}
	for _, stage := range []string{"profile", "capture", "verify", "baselines"} {
		if byName[stage].Parent != byName["prepare"].ID {
			t.Errorf("%s span not nested under prepare", stage)
		}
	}
	if byName["search"].Parent != byName["pipeline"].ID || byName["install"].Parent != byName["pipeline"].ID {
		t.Error("search/install spans not nested under pipeline")
	}
	if byName["ga.generation"].Parent != byName["search"].ID {
		t.Error("generation spans not nested under search")
	}

	// Registry totals line up with the report.
	if got := reg.Counter("ga.evaluations").Value(); got != int64(len(rep.Search.Trace)) {
		t.Errorf("ga.evaluations = %d, want %d", got, len(rep.Search.Trace))
	}
	if got := reg.Counter("ga.cache_hits").Value(); got != int64(rep.SearchStats.CacheHits) {
		t.Errorf("ga.cache_hits = %d, want %d", got, rep.SearchStats.CacheHits)
	}
	if reg.Counter("capture.captures").Value() != 1 {
		t.Errorf("capture.captures = %d, want 1", reg.Counter("capture.captures").Value())
	}
	if reg.Counter("replay.runs").Value() == 0 || reg.Histogram("replay.restore_ms").Count() == 0 {
		t.Error("replay counters never incremented")
	}
	if reg.Histogram("ga.eval_ms").Count() == 0 {
		t.Error("eval latency histogram is empty")
	}

	// When the small search does hit failing genomes, discard accounting
	// must reconcile (the dedicated cause test below provokes them).
	var nDiscards int64
	for _, n := range reg.Tally("core.discards").Counts() {
		nDiscards += n
	}
	if int64(counts["eval.discard"]) != nDiscards {
		t.Errorf("eval.discard spans (%d) != discards (%d)", counts["eval.discard"], nDiscards)
	}
}

// TestObsDiscardCausesAuditable provokes a compiler-error discard and checks
// the cause lands in the tallies and on an eval.discard span — the fix for
// classifyCompileError/classifyRuntimeError collapsing distinct failures.
func TestObsDiscardCausesAuditable(t *testing.T) {
	prog, err := minic.CompileSource("miniapp", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collect{}
	sc := obs.New(col)
	opts := smallOptions()
	opts.Obs = sc
	opt := New(opts)
	p, err := opt.Prepare(&App{Name: "miniapp", Prog: prog})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}

	// Starving the register allocator is a deterministic compiler-error
	// discard on any app.
	cfg := lir.O1()
	cfg.Lower.Machine.NumRegs = 4
	ev := p.Evaluate(cfg)
	if ev.Outcome != ga.OutcomeCompilerError {
		t.Fatalf("outcome = %v, want compiler-error", ev.Outcome)
	}

	reg := sc.Registry()
	if got := reg.Tally("core.discards").Get(ga.OutcomeCompilerError.String()); got != 1 {
		t.Errorf("core.discards[compiler-error] = %d, want 1", got)
	}
	// The tally uses the stable label (register starvation is a lowering
	// failure); the raw error text rides the span.
	if got := reg.Tally("core.discard_causes").Get("lower-error"); got != 1 {
		t.Errorf("core.discard_causes[lower-error] = %d, want 1 (%v)",
			got, reg.Tally("core.discard_causes").Counts())
	}
	discardSpans := col.ByName("eval.discard")
	if len(discardSpans) != 1 {
		t.Fatalf("want 1 eval.discard span, got %d", len(discardSpans))
	}
	attrs := discardSpans[0].Attrs
	errStr, _ := attrs["error"].(string)
	if attrs["outcome"] != ga.OutcomeCompilerError.String() || attrs["cause"] != "lower-error" ||
		!strings.Contains(errStr, "registers") {
		t.Errorf("eval.discard attrs do not carry the cause: %v", attrs)
	}
}
