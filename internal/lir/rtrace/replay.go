package rtrace

// Mechanical trace replay: rebuild the compile input from the header, run the
// pipeline again, and prove at every step that it is doing exactly what the
// trace says it did. Replay is the trace's integrity check — a trace that
// replays to the recorded image fingerprint is a complete, faithful account
// of how that image came to be (the reproducibility half of the paper's
// transparency story).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/sa"
	"replayopt/internal/schema"
)

// Trace is a parsed rewrite trace.
type Trace struct {
	Header  *Header
	Entries []Entry
	Trailer *Trailer
}

// ReadTrace reads a rewrite trace: the format's one reader and validator,
// behind replay and bisect. Each line is one record, decoded strictly by
// schema.Decode into the struct its kind names and checked by that struct's
// Check; any other kind is an error. The records must come in compile
// order: one header first, entries with contiguous seq from 0, and at most
// one image trailer, last, whose entry count matches. An entry that carries
// an error ends the trace. A trace without a trailer, from an aborted
// compile, reads; Replay refuses it.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := t.add(sc.Bytes()); err != nil {
			return nil, fmt.Errorf("rtrace: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.Header == nil {
		return nil, errors.New("rtrace: no header record found")
	}
	return t, nil
}

// add decodes one record and appends it where the order rules allow.
func (t *Trace) add(raw []byte) error {
	kind, err := schema.Kind(raw)
	if err != nil {
		return err
	}
	switch {
	case t.Trailer != nil:
		return errors.New("record after the image trailer")
	case len(t.Entries) > 0 && t.Entries[len(t.Entries)-1].Error != "":
		return errors.New("record after the entry that aborted the compile")
	case t.Header != nil && kind == KindHeader:
		return errors.New("duplicate header")
	case t.Header == nil && kind != KindHeader:
		return fmt.Errorf("%q record before the header", kind)
	}
	switch kind {
	case KindHeader:
		t.Header = new(Header)
		return schema.Decode(raw, t.Header)
	case KindRewrite:
		var e Entry
		if err := schema.Decode(raw, &e); err != nil {
			return err
		}
		if e.Seq != len(t.Entries) {
			return fmt.Errorf("seq %d, want %d", e.Seq, len(t.Entries))
		}
		t.Entries = append(t.Entries, e)
	case KindImage:
		var tr Trailer
		if err := schema.Decode(raw, &tr); err != nil {
			return err
		}
		if tr.Entries != len(t.Entries) {
			return fmt.Errorf("trailer claims %d entries, file has %d", tr.Entries, len(t.Entries))
		}
		t.Trailer = &tr
	default:
		return fmt.Errorf("unknown record kind %q", kind)
	}
	return nil
}

// ReadTraceFile reads a trace from disk.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// Methods returns the compile order recorded in the header.
func (t *Trace) Methods() []dex.MethodID {
	out := make([]dex.MethodID, len(t.Header.Methods))
	for i, m := range t.Header.Methods {
		out[i] = dex.MethodID(m)
	}
	return out
}

// Config rebuilds the compile configuration from the header and verifies the
// rebuilt fingerprint matches the recorded one — a changed pass registry or a
// lossy header round-trip fails here, before any compile runs.
func (t *Trace) Config() (lir.Config, error) {
	cfg := lir.Config{Lower: lir.ApplyLlc(t.Header.Llc)}
	for _, p := range t.Header.Passes {
		if _, ok := lir.PassByName(p.Name); !ok {
			return lir.Config{}, fmt.Errorf("rtrace: trace names unknown pass %q", p.Name)
		}
		cfg.Passes = append(cfg.Passes, lir.PassSpec{Name: p.Name, Params: p.Params})
	}
	got := HashString(cfg.Fingerprint())
	if got != t.Header.ConfigFingerprint {
		return lir.Config{}, fmt.Errorf("rtrace: rebuilt config fingerprint %s != recorded %s",
			got, t.Header.ConfigFingerprint)
	}
	return cfg, nil
}

// Divergence pins the first point where a replay disagreed with the trace.
type Divergence struct {
	Seq   int    `json:"seq"`
	Pass  string `json:"pass"`
	Stage string `json:"stage"` // "before" | "after" | "pass-name" | "length"
	Want  string `json:"want"`
	Got   string `json:"got"`
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("rtrace: replay diverged at seq %d (%s, %s): want %s, got %s",
		d.Seq, d.Pass, d.Stage, d.Want, d.Got)
}

// ReplayResult is the verdict of a mechanical replay.
type ReplayResult struct {
	Entries    int         `json:"entries"`
	ImageHash  string      `json:"image_hash"`
	Match      bool        `json:"match"`
	Divergence *Divergence `json:"divergence,omitempty"`
}

// replayTracer checks the live compile against the recorded entries in seq
// order and reproduces recorded skip decisions mechanically.
type replayTracer struct {
	entries []Entry
	seq     int
	div     *Divergence
}

func (rt *replayTracer) BeforePass(f *lir.Function, spec lir.PassSpec, info *lir.PassInfo, resolved map[string]int) bool {
	if rt.div != nil {
		return true
	}
	if rt.seq >= len(rt.entries) {
		rt.div = &Divergence{Seq: rt.seq, Pass: spec.Name, Stage: "length",
			Want: fmt.Sprintf("%d entries", len(rt.entries)), Got: "more applications"}
		return true
	}
	e := rt.entries[rt.seq]
	if e.Pass != spec.Name {
		rt.div = &Divergence{Seq: rt.seq, Pass: spec.Name, Stage: "pass-name", Want: e.Pass, Got: spec.Name}
		return true
	}
	if got := HashString(lir.HashFunction(f)); got != e.Before {
		rt.div = &Divergence{Seq: rt.seq, Pass: spec.Name, Stage: "before", Want: e.Before, Got: got}
		return true
	}
	return !e.Skipped
}

func (rt *replayTracer) AfterPass(f *lir.Function, spec lir.PassSpec, info *lir.PassInfo, ran bool, notes []lir.RewriteNote, dropped int, err error) {
	seq := rt.seq
	rt.seq++
	if rt.div != nil || seq >= len(rt.entries) {
		return
	}
	e := rt.entries[seq]
	if got := HashString(lir.HashFunction(f)); got != e.After {
		rt.div = &Divergence{Seq: seq, Pass: spec.Name, Stage: "after", Want: e.After, Got: got}
	}
}

// Replay mechanically re-executes t against prog: same methods, same config,
// every recorded hash re-checked, final image fingerprint compared. prof and
// static must be the same pipeline inputs the original compile used (core's
// Prepare is deterministic for a given seed, so consumers reconstruct them by
// re-preparing). A compile error or any divergence yields Match=false.
func Replay(prog *dex.Program, t *Trace, prof *lir.Profile, static *sa.Result) (*ReplayResult, error) {
	if t.Trailer == nil {
		return nil, fmt.Errorf("rtrace: trace has no image trailer (aborted compile?); nothing to replay against")
	}
	cfg, err := t.Config()
	if err != nil {
		return nil, err
	}
	rt := &replayTracer{entries: t.Entries}
	cfg.Trace = rt
	code, cerr := lir.Compile(prog, t.Methods(), cfg, prof, static)
	res := &ReplayResult{Entries: rt.seq}
	if rt.div != nil {
		res.Divergence = rt.div
		return res, nil
	}
	if cerr != nil {
		return nil, fmt.Errorf("rtrace: replay compile failed: %w", cerr)
	}
	if rt.seq != len(t.Entries) {
		res.Divergence = &Divergence{Seq: rt.seq, Stage: "length",
			Want: fmt.Sprintf("%d entries", len(t.Entries)), Got: fmt.Sprintf("%d applications", rt.seq)}
		return res, nil
	}
	res.ImageHash = HashString(machine.HashProgram(code))
	res.Match = res.ImageHash == t.Trailer.ImageHash
	if !res.Match {
		res.Divergence = &Divergence{Seq: len(t.Entries), Stage: "after",
			Want: t.Trailer.ImageHash, Got: res.ImageHash}
	}
	return res, nil
}
