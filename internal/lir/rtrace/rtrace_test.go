package rtrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/obs"
	"replayopt/internal/progen"
)

// A fixture with loops, arrays, calls, and an always-executed global int
// store (the store tvbreak skews), so most catalog passes have something to
// do and the seeded miscompile always finds a target.
const fixtureSrc = `
global int ticks;

func sq(int x) int { return x * x; }

func kernel(int n) int {
	int[] a = new int[n];
	for (int i = 0; i < len(a); i = i + 1) { a[i] = sq(i) % 29; }
	int s = 0;
	for (int i = 0; i < len(a); i = i + 1) { s = s + a[i] * 3; }
	return s;
}

func main() int {
	int total = 0;
	for (int r = 0; r < 4; r = r + 1) { total = total + kernel(60 + r); }
	ticks = ticks + 1;
	return total;
}
`

func fixture(t testing.TB) (*dex.Program, []dex.MethodID) {
	t.Helper()
	prog, err := minic.CompileSource("fixture", fixtureSrc)
	if err != nil {
		t.Fatal(err)
	}
	var methods []dex.MethodID
	for i := range prog.Methods {
		if !prog.Methods[i].Uncompilable {
			methods = append(methods, dex.MethodID(i))
		}
	}
	return prog, methods
}

// record compiles prog under cfg with a fresh Recorder and returns the raw
// trace bytes alongside the compiled image hash.
func record(t testing.TB, prog *dex.Program, methods []dex.MethodID, cfg lir.Config) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(obs.NewJSONLWriter(&buf), RecorderOptions{DiffLines: DefaultDiffLines})
	if err := rec.WriteHeader("fixture", 1, cfg, methods); err != nil {
		t.Fatal(err)
	}
	cfg.Trace = rec
	code, err := lir.Compile(prog, methods, cfg, nil, nil)
	if err != nil {
		t.Fatalf("traced compile: %v", err)
	}
	img := machine.HashProgram(code)
	if err := rec.Finish(img); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), img
}

// encodeTrace writes a parsed trace back out the way a Recorder writes it.
func encodeTrace(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	w.Write(tr.Header)
	for _, e := range tr.Entries {
		w.Write(e)
	}
	if tr.Trailer != nil {
		w.Write(tr.Trailer)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTrace: the same preset over the same program yields a
// byte-identical trace — entries carry no timestamps and all map keys
// marshal sorted, so recording is deterministic down to the bytes — and
// the reader keeps every byte the recorder wrote.
func TestGoldenTrace(t *testing.T) {
	prog, methods := fixture(t)
	a, _ := record(t, prog, methods, lir.O3())
	b, _ := record(t, prog, methods, lir.O3())
	if !bytes.Equal(a, b) {
		t.Fatalf("two recordings of the same compile differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	tr, err := ReadTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("golden trace does not read: %v", err)
	}
	if tr.Trailer == nil || len(tr.Entries) == 0 {
		t.Fatalf("unexpected trace shape: %d entries, trailer %v", len(tr.Entries), tr.Trailer)
	}
	fired := 0
	for _, e := range tr.Entries {
		if e.Fired {
			fired++
		}
	}
	if fired == 0 {
		t.Error("O3 over the loop fixture fired no pass at all")
	}
	if enc := encodeTrace(t, tr); !bytes.Equal(enc, a) {
		t.Errorf("re-encoding the read trace changed it:\n--- recorded ---\n%s\n--- re-encoded ---\n%s", a, enc)
	}
}

// TestReplayPresets proves the mechanical-replay contract for every preset:
// re-executing the trace reproduces the recorded image fingerprint.
func TestReplayPresets(t *testing.T) {
	prog, methods := fixture(t)
	for _, tc := range []struct {
		name string
		cfg  lir.Config
	}{
		{"O0", lir.O0()}, {"O1", lir.O1()}, {"O2", lir.O2()}, {"O3", lir.O3()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, img := record(t, prog, methods, tc.cfg)
			tr, err := ReadTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(prog, tr, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Match {
				t.Fatalf("replay did not reproduce the image: %+v", res.Divergence)
			}
			if res.ImageHash != HashString(img) {
				t.Errorf("replay image %s != recorded %s", res.ImageHash, HashString(img))
			}
			if res.Entries != len(tr.Entries) {
				t.Errorf("replay saw %d applications, trace has %d", res.Entries, len(tr.Entries))
			}
		})
	}
}

// TestReplayDetectsTampering: a trace whose recorded hashes no longer match
// the live compile pins the first divergence instead of matching.
func TestReplayDetectsTampering(t *testing.T) {
	prog, methods := fixture(t)
	raw, _ := record(t, prog, methods, lir.O2())
	tr, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) < 2 {
		t.Fatal("fixture trace too short to tamper with")
	}
	// Corrupt one mid-trace after-hash.
	k := len(tr.Entries) / 2
	tr.Entries[k].After = HashString(0xdeadbeef)
	res, err := Replay(prog, tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Match || res.Divergence == nil {
		t.Fatal("tampered trace replayed clean")
	}
	// The corrupted entry is either the pinned divergence itself or breaks
	// the next entry's before-hash; both must point at seq k or k+1.
	if res.Divergence.Seq != k && res.Divergence.Seq != k+1 {
		t.Errorf("divergence at seq %d, corrupted seq %d", res.Divergence.Seq, k)
	}
}

// TestBisectPinsMiscompile seeds the deliberately broken tvbreak pass into a
// real pipeline, records the trace, and checks bisection lands exactly on
// tvbreak's first firing application within the logarithmic step budget.
func TestBisectPinsMiscompile(t *testing.T) {
	cleanup := lir.RegisterForTesting(tv.MiscompilePass())
	defer cleanup()

	prog, methods := fixture(t)
	cfg := lir.O2()
	// Bury the miscompile mid-pipeline so the bisector has work to do.
	passes := append([]lir.PassSpec(nil), cfg.Passes[:4]...)
	passes = append(passes, lir.PassSpec{Name: tv.MiscompilePassName})
	cfg.Passes = append(passes, cfg.Passes[4:]...)

	raw, _ := record(t, prog, methods, cfg)
	tr, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Entries)
	wantSeq := -1
	for _, e := range tr.Entries {
		if e.Pass == tv.MiscompilePassName && e.Fired {
			wantSeq = e.Seq
			break
		}
	}
	if wantSeq < 0 {
		t.Fatal("tvbreak never fired in the recorded trace")
	}

	// The oracle: compile with only the admitted applications enabled and a
	// fresh strict validator; "bad" means the validator proves a miscompile.
	bad := func(enabled func(seq int) bool) bool {
		probe := cfg
		probe.Check = tv.NewChecker(tv.Options{Reject: true, Strict: true})
		_, _, err := CompileMasked(prog, methods, probe, nil, nil, enabled)
		var rej *tv.RejectError
		return errors.As(err, &rej)
	}
	res, err := Bisect(n, bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.BadSeq != wantSeq {
		t.Errorf("bisection pinned seq %d (%s), tvbreak first fired at seq %d",
			res.BadSeq, tr.Entries[res.BadSeq].Pass, wantSeq)
	}
	if budget := int(math.Ceil(math.Log2(float64(n)))); res.Steps > budget {
		t.Errorf("bisection took %d steps over %d applications, budget ⌈log2⌉ = %d",
			res.Steps, n, budget)
	}
	found := false
	for _, seq := range res.Minimal {
		if seq == res.BadSeq {
			found = true
		}
	}
	if !found {
		t.Errorf("minimal set %v does not contain the pinned application %d", res.Minimal, res.BadSeq)
	}
	if len(res.Minimal) > n {
		t.Errorf("minimal set grew: %d applications from a trace of %d", len(res.Minimal), n)
	}
}

// TestLockRoundTripAndDrift covers the policy-lock lifecycle: cut, persist,
// reload, audit clean, then every drift class when the world changes.
func TestLockRoundTripAndDrift(t *testing.T) {
	prog, methods := fixture(t)
	cfg := lir.O3()
	var buf bytes.Buffer
	rec := NewRecorder(obs.NewJSONLWriter(&buf), RecorderOptions{})
	if err := rec.WriteHeader("fixture", 1, cfg, methods); err != nil {
		t.Fatal(err)
	}
	tcfg := cfg
	tcfg.Trace = rec
	code, err := lir.Compile(prog, methods, tcfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := machine.HashProgram(code)
	lock := BuildLock("fixture", cfg, img, rec.Fired())

	if drifts := CheckLock(lock); len(drifts) != 0 {
		t.Fatalf("fresh lock drifts against its own compiler: %+v", drifts)
	}
	drifts, recompiled := CheckLockDynamic(lock, prog, methods, nil, nil)
	if len(drifts) != 0 {
		t.Fatalf("fresh lock drifts dynamically: %+v", drifts)
	}
	if recompiled == nil || machine.HashProgram(recompiled) != img {
		t.Fatal("the dynamic check did not return the locked image")
	}

	path := filepath.Join(t.TempDir(), "fixture.lock.json")
	if err := WriteLockFile(path, lock); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.ConfigFingerprint != lock.ConfigFingerprint || len(back.Passes) != len(lock.Passes) {
		t.Fatalf("lock did not round-trip: %+v vs %+v", back, lock)
	}
	if cfg2, err := back.Config(); err != nil {
		t.Fatalf("reloaded lock does not rebuild its config: %v", err)
	} else if HashString(cfg2.Fingerprint()) != lock.ConfigFingerprint {
		t.Error("rebuilt config fingerprint drifted through the file round-trip")
	}

	drifted := func(l *Lock, kind string) bool {
		for _, d := range CheckLock(l) {
			if d.Kind == kind {
				return true
			}
		}
		return false
	}
	renamed := *lock
	renamed.Passes = append([]lir.PassSpec(nil), lock.Passes...)
	renamed.Passes[0].Name = "no-such-pass"
	if !drifted(&renamed, "missing-pass") {
		t.Error("renamed pass not reported as missing-pass")
	}
	clamped := *lock
	clamped.Passes = append([]lir.PassSpec(nil), lock.Passes...)
	clamped.Passes[0] = lir.PassSpec{Name: "inline", Params: map[string]int{"threshold": 1 << 20}}
	if !drifted(&clamped, "param-clamped") {
		t.Error("out-of-range locked param not reported as param-clamped")
	}
	gone := *lock
	gone.Passes = append([]lir.PassSpec(nil), lock.Passes...)
	gone.Passes[0] = lir.PassSpec{Name: "inline", Params: map[string]int{"no-such-param": 1}}
	if !drifted(&gone, "missing-param") {
		t.Error("vanished locked param not reported as missing-param")
	}
	llc := *lock
	llc.Llc = map[string]int{"no-such-option": 1}
	if !drifted(&llc, "llc-drift") {
		t.Error("unknown locked llc option not reported as llc-drift")
	}

	// Dynamic drift: claim a fired count for a pass that is a no-op on this
	// program, and an image hash the recompile cannot reproduce.
	quiet := ""
	for _, p := range lock.Passes {
		if lock.Fired[p.Name] == 0 {
			quiet = p.Name
			break
		}
	}
	if quiet != "" {
		nofire := *lock
		nofire.Fired = map[string]int{quiet: 3}
		found := false
		drifts, _ := CheckLockDynamic(&nofire, prog, methods, nil, nil)
		for _, d := range drifts {
			if d.Kind == "no-longer-fires" && d.Pass == quiet {
				found = true
			}
		}
		if !found {
			t.Errorf("claimed firing of no-op pass %q not reported as no-longer-fires", quiet)
		}
	}
	imgdrift := *lock
	imgdrift.ImageHash = HashString(img ^ 1)
	found := false
	drifts, _ = CheckLockDynamic(&imgdrift, prog, methods, nil, nil)
	for _, d := range drifts {
		if d.Kind == "image-drift" {
			found = true
		}
	}
	if !found {
		t.Error("wrong locked image hash not reported as image-drift")
	}
}

// TestValidateRejectsCorruption: ReadTrace, the trace's one reader, refuses
// damage a JSON parser alone would accept, and every record that is not part
// of a rewrite trace.
// TestEmptyPipelinePersistsAsList pins the persisted bytes of a config with
// no passes (O0): headers and locks write "passes" as an empty list, never
// null.
func TestEmptyPipelinePersistsAsList(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(obs.NewJSONLWriter(&buf), RecorderOptions{})
	if err := rec.WriteHeader("fixture", 1, lir.O0(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"passes":[]`) {
		t.Errorf("O0 header: %s", buf.String())
	}
	data, err := encodeLock(BuildLock("fixture", lir.O0(), 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"passes": []`) {
		t.Errorf("O0 lock: %s", data)
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	prog, methods := fixture(t)
	raw, _ := record(t, prog, methods, lir.O2())
	if _, err := ReadTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}
	// afterHeader inserts one line between the header and the first entry.
	afterHeader := func(line string) (old, new string) {
		return "\n" + `{"kind":"rewrite","seq":0,`, "\n" + line + "\n" + `{"kind":"rewrite","seq":0,`
	}
	lockOld, lockNew := afterHeader(`{"kind":"rtrace-lock","schema":99,"config_fingerprint":"0000000000000000","passes":[]}`)
	noteOld, noteNew := afterHeader(`{"kind":"rtrace-note","seq":0}`)
	spanOld, spanNew := afterHeader(`{"id":1,"name":"compile","start_us":0,"dur_us":5}`)
	for _, tc := range []struct {
		name, old, new, want string
	}{
		{"seq-gap", `"kind":"rewrite","seq":1,`, `"kind":"rewrite","seq":7,`, "seq 7, want 1"},
		{"unknown-kind", `"kind":"rtrace-image"`, `"kind":"rtrace-imago"`, `unknown record kind "rtrace-imago"`},
		{"bad-hash", `"before":"`, `"before":"zz`, "before hash"},
		{"unknown-kind-line", noteOld, noteNew, `unknown record kind "rtrace-note"`},
		{"lock-line", lockOld, lockNew, `unknown record kind "rtrace-lock"`},
		{"span-line", spanOld, spanNew, `unknown record kind ""`},
		{"unknown-key", `"kind":"rewrite","seq":3,`, `"kind":"rewrite","seq":3,"sqe":3,`, `unknown field "sqe"`},
		{"fired-equal-hashes", `"fired":false`, `"fired":true`, "marked fired but hashes are identical"},
		{"entry-after-error", `"fired":false`, `"fired":false,"error":"crash"`, "after the entry that aborted the compile"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := bytes.Replace(raw, []byte(tc.old), []byte(tc.new), 1)
			if bytes.Equal(bad, raw) {
				t.Fatalf("corruption pattern %q not found in trace", tc.old)
			}
			_, err := ReadTrace(bytes.NewReader(bad))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("corrupted trace read with error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestReadLockFileRejectsCorruption: ReadLockFile decodes strictly and
// checks the lock's kind, version and hashes.
func TestReadLockFileRejectsCorruption(t *testing.T) {
	prog, methods := fixture(t)
	_, img := record(t, prog, methods, lir.O3())
	good, err := encodeLock(BuildLock("fixture", lir.O3(), img, nil))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		mutate func(m map[string]any)
		want   string
	}{
		{"clean", func(map[string]any) {}, ""},
		{"unknown-key", func(m map[string]any) { m["fingerprint"] = m["config_fingerprint"] }, `unknown field "fingerprint"`},
		{"missing-fingerprint", func(m map[string]any) { delete(m, "config_fingerprint") }, "config_fingerprint missing"},
		{"wrong-kind", func(m map[string]any) { m["kind"] = KindHeader }, `kind "rtrace-header", want "rtrace-lock"`},
		{"wrong-version", func(m map[string]any) { m["schema"] = SchemaVersion + 1 }, "schema version 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal(good, &m); err != nil {
				t.Fatal(err)
			}
			tc.mutate(m)
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.name+".lock.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = ReadLockFile(path)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("clean lock rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("corrupted lock read with error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// FuzzReadTrace: ReadTrace never panics, and whatever it accepts re-encodes
// to a trace it accepts again, which re-encodes to the same bytes.
func FuzzReadTrace(f *testing.F) {
	prog, methods := fixture(f)
	for _, cfg := range []lir.Config{lir.O2(), lir.O3()} {
		raw, _ := record(f, prog, methods, cfg)
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := encodeTrace(t, tr)
		back, err := ReadTrace(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, enc)
		}
		if again := encodeTrace(t, back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n%s\nthen\n%s", enc, again)
		}
	})
}

// FuzzDecodeLock: decodeLock never panics, and whatever it accepts
// re-encodes to a lock it accepts again, which re-encodes to the same bytes.
func FuzzDecodeLock(f *testing.F) {
	prog, methods := fixture(f)
	raw, img := record(f, prog, methods, lir.O3())
	tr, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		f.Fatal(err)
	}
	fired := map[string]int{}
	for _, e := range tr.Entries {
		if e.Fired {
			fired[e.Pass]++
		}
	}
	for _, l := range []*Lock{BuildLock("fixture", lir.O3(), img, fired), BuildLock("", lir.O0(), 0, nil)} {
		data, err := encodeLock(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := decodeLock(data)
		if err != nil {
			return
		}
		enc, err := encodeLock(l)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeLock(enc)
		if err != nil {
			t.Fatalf("re-encoded lock rejected: %v\n%s", err, enc)
		}
		again, err := encodeLock(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n%s\nthen\n%s", enc, again)
		}
	})
}

// TestRecordingIsObservationOnly: the compiled image is bit-identical with
// and without a recorder attached.
func TestRecordingIsObservationOnly(t *testing.T) {
	prog, methods := fixture(t)
	plain, err := lir.Compile(prog, methods, lir.O3(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, img := record(t, prog, methods, lir.O3())
	if got := machine.HashProgram(plain); got != img {
		t.Fatalf("recording changed the image: %016x plain, %016x traced", got, img)
	}
}

// chainTracer fails t when the pipeline's record of a pass application
// disagrees with fresh hashes of the function: Before at BeforePass, and
// After and Fired at AfterPass.
type chainTracer struct {
	t    testing.TB
	apps int
}

func (c *chainTracer) BeforePass(f *lir.Function, app *lir.PassApplication) bool {
	if got := lir.HashFunction(f); app.Before != got {
		c.t.Errorf("%s before %s: record says %016x, the function hashes %016x", f.Name, app.Spec.Name, app.Before, got)
	}
	return true
}

func (c *chainTracer) AfterPass(f *lir.Function, app *lir.PassApplication) {
	c.apps++
	got := lir.HashFunction(f)
	if app.After != got || app.Fired != (app.Ran && got != app.Before) {
		c.t.Errorf("%s after %s: record says after=%016x fired=%t, the function hashes %016x (before %016x)",
			f.Name, app.Spec.Name, app.After, app.Fired, got, app.Before)
	}
}

// TestRecordChainsHashes: the pipeline hashes each function once per pass
// application, after the checker has seen the result, and hands that hash
// on as the next application's Before. That is sound only if strict tv's
// AfterPass never changes the hash; this test checks it for every preset
// over the fixture and three progen programs.
func TestRecordChainsHashes(t *testing.T) {
	srcs := []string{fixtureSrc}
	for _, seed := range []int64{11, 19, 22} {
		srcs = append(srcs, progen.Generate(rand.New(rand.NewSource(seed)), progen.Default()))
	}
	for i, src := range srcs {
		prog, err := minic.CompileSource(fmt.Sprintf("p%d", i), src)
		if err != nil {
			t.Fatal(err)
		}
		for _, preset := range []string{"O1", "O2", "O3"} {
			cfg, _ := lir.Preset(preset)
			cfg.Check = tv.NewChecker(tv.Options{Strict: true})
			ct := &chainTracer{t: t}
			cfg.Trace = ct
			if _, err := lir.Compile(prog, nil, cfg, nil, nil); err != nil {
				t.Fatalf("p%d %s: %v", i, preset, err)
			}
			if ct.apps == 0 {
				t.Errorf("p%d %s: no pass application observed", i, preset)
			}
		}
	}
}

// TestObserversAgree compiles the fixture under O3 with strict tv, a
// Recorder and an obs scope attached at once. The three must tell one story:
// the ran entries carry the checker's verdicts in order, and the Recorder's
// fired counts (what a lock pins) are the lir.pass_fired tally.
func TestObserversAgree(t *testing.T) {
	prog, methods := fixture(t)
	cfg := lir.O3()
	chk := tv.NewChecker(tv.Options{Reject: true, Strict: true})
	cfg.Check = chk
	var buf bytes.Buffer
	rec := NewRecorder(obs.NewJSONLWriter(&buf), RecorderOptions{})
	if err := rec.WriteHeader("fixture", 1, cfg, methods); err != nil {
		t.Fatal(err)
	}
	cfg.Trace = rec
	scope := obs.New()
	sp := scope.Start("compile")
	cfg.Obs = sp
	code, err := lir.Compile(prog, methods, cfg, nil, nil)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(machine.HashProgram(code)); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var ran []Entry
	for _, e := range tr.Entries {
		if !e.Skipped {
			ran = append(ran, e)
		}
	}
	if len(ran) == 0 || len(ran) != len(chk.Verdicts) {
		t.Fatalf("%d ran entries, checker recorded %d verdicts", len(ran), len(chk.Verdicts))
	}
	for i, e := range ran {
		pv := chk.Verdicts[i]
		if e.Pass != pv.Pass || e.Fn != pv.Fn || e.TV != pv.Verdict.String() || e.TVReason != pv.Reason {
			t.Errorf("seq %d: entry %s on %s has tv=%q reason=%q, checker says %s on %s: %q %q",
				e.Seq, e.Pass, e.Fn, e.TV, e.TVReason, pv.Pass, pv.Fn, pv.Verdict, pv.Reason)
		}
	}
	fired, tally := rec.Fired(), scope.Tally("lir.pass_fired").Counts()
	if len(fired) == 0 || len(fired) != len(tally) {
		t.Fatalf("recorder fired %v, lir.pass_fired tally %v", fired, tally)
	}
	for name, n := range fired {
		if tally[name] != int64(n) {
			t.Errorf("%s: recorder counts %d firings, lir.pass_fired %d", name, n, tally[name])
		}
	}
}
