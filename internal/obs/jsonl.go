// JSONL trace sink: one JSON object per finished span, in end order; the
// file sink that checks what it wrote when it closes; and the reader half,
// the one reader and validator of span traces.

package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"replayopt/internal/schema"
)

// JSONLWriter streams finished spans to w as JSON Lines. Safe for
// concurrent use; the first write error sticks and silences later writes.
type JSONLWriter struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewJSONLWriter returns a sink writing to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: w, enc: json.NewEncoder(w)}
}

// SpanEnd implements SpanSink.
func (j *JSONLWriter) SpanEnd(sd SpanData) { j.Write(sd) }

// Write encodes one arbitrary record as a JSON line under the writer's lock
// and sticky-error discipline.
func (j *JSONLWriter) Write(v any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.enc.Encode(v); err != nil {
		j.err = err
		return err
	}
	j.n++
	return nil
}

// Count reports how many records were written.
func (j *JSONLWriter) Count() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Err reports the first write error, if any.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// TraceFile is a span sink writing a JSONL trace to a file, the sink behind
// every -trace flag.
type TraceFile struct {
	*JSONLWriter
	f *os.File
}

// CreateTraceFile creates (or truncates) the trace file at path.
func CreateTraceFile(path string) (*TraceFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &TraceFile{JSONLWriter: NewJSONLWriter(f), f: f}, nil
}

// Close reports the first write error, closes the file, and reads it back
// through ReadJSONL, so a trace that closes cleanly holds every span written
// and is one every reader accepts.
func (t *TraceFile) Close() error {
	err := t.Err()
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: writing trace %s: %w", t.f.Name(), err)
	}
	f, err := os.Open(t.f.Name())
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := ReadJSONL(f)
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", t.f.Name(), err)
	case len(spans) != t.Count():
		return fmt.Errorf("obs: trace %s: %d spans read back, %d written", t.f.Name(), len(spans), t.Count())
	}
	return nil
}

// ReadJSONL reads a span trace written by JSONLWriter: the format's one
// reader and validator. Each line is one SpanData, decoded strictly by
// schema.Decode, so a line with a "kind" field (a rewrite-trace record) is
// an error, and checked by SpanData.Check. The spans must form a forest:
// unique ids, and parents that resolve (a child ends, and so is written,
// before its parent). Line numbers are 1-based in errors.
func ReadJSONL(r io.Reader) ([]SpanData, error) {
	var out []SpanData
	ids := map[uint64]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var sd SpanData
		if err := schema.Decode(sc.Bytes(), &sd); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if ids[sd.ID] {
			return nil, fmt.Errorf("obs: trace line %d: duplicate span id %d", line, sd.ID)
		}
		ids[sd.ID] = true
		out = append(out, sd)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	for _, sd := range out {
		if sd.Parent != 0 && !ids[sd.Parent] {
			return nil, fmt.Errorf("obs: span %q (id %d) references missing parent %d",
				sd.Name, sd.ID, sd.Parent)
		}
	}
	return out, nil
}

// Check enforces one span record's own invariants: an id, a name, and a
// non-negative duration.
func (sd *SpanData) Check() error {
	switch {
	case sd.ID == 0:
		return errors.New("span without an id")
	case sd.Name == "":
		return errors.New("span without a name")
	case sd.DurUS < 0:
		return fmt.Errorf("span %q (id %d) has negative duration", sd.Name, sd.ID)
	}
	return nil
}

// Progress is a sink that turns "ga.generation" spans into a live one-line
// progress report (gen, best speedup, cache-hit rate, evals/s) — the search
// is the long pole of the pipeline (§3.7) and runs silently otherwise.
type Progress struct {
	mu sync.Mutex
	w  io.Writer
}

// NewProgress returns a progress sink printing to w.
func NewProgress(w io.Writer) *Progress { return &Progress{w: w} }

// SpanEnd implements SpanSink.
func (p *Progress) SpanEnd(sd SpanData) {
	if sd.Name != "ga.generation" && sd.Name != "ga.hillclimb" {
		return
	}
	evals := Num(sd.Attrs, "evals")
	hits := Num(sd.Attrs, "cache_hits")
	rate := 0.0
	if evals+hits > 0 {
		rate = hits / (evals + hits) * 100
	}
	perSec := 0.0
	if sd.DurUS > 0 {
		perSec = evals / (float64(sd.DurUS) / 1e6)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if sd.Name == "ga.hillclimb" {
		fmt.Fprintf(p.w, "hillclimb: best %.2fx | %.0f evals | %.1f evals/s\n",
			Num(sd.Attrs, "best_speedup"), evals, perSec)
		return
	}
	fmt.Fprintf(p.w, "gen %2.0f: best %.2fx | %.0f evals, cache-hit %.0f%% | %.1f evals/s | eval p50 %.2f ms p99 %.2f ms\n",
		Num(sd.Attrs, "gen"), Num(sd.Attrs, "best_speedup"),
		evals, rate, perSec,
		Num(sd.Attrs, "eval_p50_ms"), Num(sd.Attrs, "eval_p99_ms"))
}

// Num reads a numeric span attribute whatever concrete type it carries
// (int/int64/float64 live in-process; everything is float64 after a JSONL
// round-trip). Missing or non-numeric attributes read as 0.
func Num(attrs map[string]any, key string) float64 {
	switch v := attrs[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case uint64:
		return float64(v)
	case json.Number:
		f, _ := v.Float64()
		return f
	default:
		return 0
	}
}
