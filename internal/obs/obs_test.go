package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSpanNestingAndOrder(t *testing.T) {
	col := &Collect{}
	var buf bytes.Buffer
	sc := New(col, NewJSONLWriter(&buf))

	root := sc.Start("pipeline", A("app", "FFT"))
	prep := root.Start("prepare")
	prof := prep.Start("profile")
	prof.End(A("samples", 65))
	prep.End()
	root.End()

	spans := col.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Spans arrive in end order: innermost first.
	if spans[0].Name != "profile" || spans[1].Name != "prepare" || spans[2].Name != "pipeline" {
		t.Fatalf("bad end order: %s, %s, %s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	// Parent links form the tree.
	if spans[2].Parent != 0 {
		t.Errorf("pipeline should be a root span, parent=%d", spans[2].Parent)
	}
	if spans[1].Parent != spans[2].ID {
		t.Errorf("prepare.parent=%d, want pipeline id %d", spans[1].Parent, spans[2].ID)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("profile.parent=%d, want prepare id %d", spans[0].Parent, spans[1].ID)
	}
	if got := spans[0].Attrs["samples"]; got != 65 {
		t.Errorf("profile samples attr = %v, want 65", got)
	}
	if spans[2].Attrs["app"] != "FFT" {
		t.Errorf("pipeline app attr = %v", spans[2].Attrs["app"])
	}
	for _, sd := range spans {
		if sd.DurUS < 0 || sd.StartUS < 0 {
			t.Errorf("span %q has negative time: start=%d dur=%d", sd.Name, sd.StartUS, sd.DurUS)
		}
	}
	if _, err := ReadJSONL(&buf); err != nil {
		t.Errorf("ReadJSONL: %v", err)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	col := &Collect{}
	sc := New(col)
	sp := sc.Start("once")
	sp.End()
	sp.End()
	sp.End(A("late", 1))
	if n := len(col.Spans()); n != 1 {
		t.Fatalf("End emitted %d times, want 1", n)
	}
	if _, ok := col.Spans()[0].Attrs["late"]; ok {
		t.Error("attrs from a second End call must not merge")
	}
}

func TestStartUnderNilParentIsRoot(t *testing.T) {
	col := &Collect{}
	sc := New(col)
	sp := sc.StartUnder(nil, "root")
	sp.End()
	if got := col.Spans()[0].Parent; got != 0 {
		t.Fatalf("parent=%d, want 0", got)
	}
}

// TestNilSafety drives the whole API through nil receivers: instrumented
// code must run un-instrumented (the default) without a single check.
func TestNilSafety(t *testing.T) {
	var sc *Scope
	sp := sc.Start("x", A("k", 1))
	if sp != nil {
		t.Fatal("nil scope must return nil spans")
	}
	sp.Attr("k", 2)
	sp.End()
	child := sp.Start("y")
	child.End()
	if sp.Scope() != nil {
		t.Fatal("nil span must return nil scope")
	}
	sc.Counter("c").Add(1)
	sc.Gauge("g").Set(3)
	sc.Gauge("g").Add(-1)
	sc.Histogram("h").Observe(1.5)
	sc.Tally("t").Inc("label")
	if sc.Counter("c").Value() != 0 || sc.Gauge("g").Value() != 0 ||
		sc.Histogram("h").Count() != 0 || sc.Tally("t").Get("label") != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if sc.Registry() != nil {
		t.Fatal("nil scope must return nil registry")
	}
	sc.AddSink(&Collect{})
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	sc := New(jw)

	root := sc.Start("search")
	gen := root.Start("ga.generation", A("gen", 0))
	gen.End(A("evals", 23), A("best_speedup", 1.12))
	root.End()

	if jw.Count() != 2 || jw.Err() != nil {
		t.Fatalf("writer: count=%d err=%v", jw.Count(), jw.Err())
	}
	spans, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(spans) != 2 || spans[0].Name != "ga.generation" || spans[1].Name != "search" {
		t.Fatalf("got spans %+v, want ga.generation then search", spans)
	}
	// JSON numbers decode as float64.
	if got := spans[0].Attrs["evals"]; got != float64(23) {
		t.Errorf("evals attr = %v (%T), want 23", got, got)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("parent link lost in round trip: %d vs %d", spans[0].Parent, spans[1].ID)
	}
}

// garbageTraces are traces with a line ReadJSONL must reject.
var garbageTraces = []string{
	"not json\n",
	`{"id":1}` + "\n",                  // no name
	`{"name":"x","start_us":0}` + "\n", // no id
	`{"kind":"rewrite","id":1,"name":"x","start_us":0,"dur_us":0}` + "\n", // a rewrite-trace record
	`{"id":1,"name":"x","start_us":0,"dur_us":0,"nmae":"y"}` + "\n",       // unknown key
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	for _, bad := range garbageTraces {
		if _, err := ReadJSONL(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadJSONL(%q) should fail", bad)
		}
	}
}

// spanLine encodes one span as JSONLWriter writes it.
func spanLine(id, parent uint64, name string, dur int64) string {
	var buf bytes.Buffer
	NewJSONLWriter(&buf).SpanEnd(SpanData{ID: id, Parent: parent, Name: name, DurUS: dur})
	return buf.String()
}

// treeTraces are traces of well-formed lines whose span tree may not hold.
var treeTraces = []struct {
	name, trace string
	ok          bool
}{
	{"duplicate ids", spanLine(1, 0, "a", 0) + spanLine(1, 0, "b", 0), false},
	{"missing parent", spanLine(1, 99, "a", 0), false},
	{"negative duration", spanLine(1, 0, "a", -5), false},
	// A child ends, and so is written, before its parent: the normal
	// order must pass although the parent id appears later.
	{"child before parent", spanLine(2, 1, "child", 0) + spanLine(1, 0, "root", 0), true},
}

// TestReadJSONLCatchesBrokenTrees: the reader checks the span tree, not
// just each line.
func TestReadJSONLCatchesBrokenTrees(t *testing.T) {
	for _, tc := range treeTraces {
		_, err := ReadJSONL(strings.NewReader(tc.trace))
		if (err == nil) != tc.ok {
			t.Errorf("%s: ReadJSONL error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestTraceFileChecksOnClose: a trace file closes cleanly only when the
// bytes on disk read back through ReadJSONL with every span written.
func TestTraceFileChecksOnClose(t *testing.T) {
	write := func() (*TraceFile, string) {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		tf, err := CreateTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := New(tf)
		root := sc.Start("pipeline")
		root.Start("profile").End()
		root.End()
		sc.Start("install").End()
		return tf, path
	}
	tf, _ := write()
	if err := tf.Close(); err != nil {
		t.Fatalf("intact trace: %v", err)
	}
	for _, c := range []struct {
		name string
		keep func(data []byte) int // bytes of the file left before Close
	}{
		{"truncated mid-line", func(data []byte) int { return len(data) - 5 }},
		{"last span lost", func(data []byte) int { return bytes.LastIndexByte(data[:len(data)-1], '\n') + 1 }},
	} {
		tf, path := write()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, int64(c.keep(data))); err != nil {
			t.Fatal(err)
		}
		if err := tf.Close(); err == nil {
			t.Errorf("%s: Close accepted the damaged trace", c.name)
		}
	}
}

// FuzzReadJSONL: ReadJSONL never panics, and a trace it accepts re-encodes
// through JSONLWriter to a trace it accepts again, holding equal spans. The
// real seed is the span trace of replayopt -app Sieve -pop 4 -gens 1.
func FuzzReadJSONL(f *testing.F) {
	for _, g := range garbageTraces {
		f.Add([]byte(g))
	}
	for _, tc := range treeTraces {
		f.Add([]byte(tc.trace))
	}
	trace, err := os.ReadFile("testdata/pipeline.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trace)
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewJSONLWriter(&buf)
		for i := range spans {
			w.SpanEnd(spans[i])
			if len(spans[i].Attrs) == 0 {
				spans[i].Attrs = nil // omitempty drops an empty attrs object
			}
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, spans) {
			t.Fatalf("re-encoding changed the spans:\n%+v\nthen\n%+v", spans, back)
		}
	})
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.SpanEnd(SpanData{Name: "ga.generation", DurUS: 500_000, Attrs: map[string]any{
		"gen": 2, "evals": 10, "cache_hits": 10, "best_speedup": 1.25,
		"eval_p50_ms": 6.5, "eval_p99_ms": 15.9,
	}})
	p.SpanEnd(SpanData{Name: "eval.discard"}) // ignored
	p.SpanEnd(SpanData{Name: "ga.hillclimb", DurUS: 250_000, Attrs: map[string]any{
		"evals": 5, "best_speedup": 1.30,
	}})
	out := buf.String()
	if !strings.Contains(out, "gen  2: best 1.25x | 10 evals, cache-hit 50% | 20.0 evals/s") {
		t.Errorf("bad generation line:\n%s", out)
	}
	if !strings.Contains(out, "eval p50 6.50 ms p99 15.90 ms") {
		t.Errorf("missing latency quantiles:\n%s", out)
	}
	if !strings.Contains(out, "hillclimb: best 1.30x | 5 evals | 20.0 evals/s") {
		t.Errorf("bad hillclimb line:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 2 {
		t.Errorf("got %d lines, want 2 (discard spans must not print):\n%s", n, out)
	}
}
