package lir_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/lirtest"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/profile"
	"replayopt/internal/progen"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

var updateIdentity = flag.Bool("update-identity", false, "rewrite testdata/compile_identity.txt from the current compiler")

const (
	identityFile         = "testdata/compile_identity.txt"
	unswitchIdentityFile = "testdata/unswitch_identity.txt"
)

// identityConfig is one pipeline of the compile-identity matrix.
type identityConfig struct {
	label string
	cfg   lir.Config
}

// identityConfigs lists the matrix, lirtest.Matrix.
func identityConfigs() []identityConfig {
	var out []identityConfig
	for _, c := range lirtest.Matrix() {
		out = append(out, identityConfig{c.Label, c.Config})
	}
	return out
}

// identityTracer feeds every pass application into the compile's digest:
// the function hash after the pass, its rewrite notes, and its error. Notes
// enter as a sorted multiset: the digests were recorded while bce still
// emitted its notes in map iteration order, when only the set was stable.
// It hashes f itself and fails t when the pipeline's record disagrees: the
// record's chained Before and After hashes and its Fired bit must equal what
// fresh hashes say at each hook.
type identityTracer struct {
	t testing.TB
	h hash.Hash
}

func (it identityTracer) BeforePass(f *lir.Function, app *lir.PassApplication) bool {
	if got := lir.HashFunction(f); app.Before != got {
		it.t.Errorf("%s before %s: record says %016x, the function hashes %016x", f.Name, app.Spec.Name, app.Before, got)
	}
	return true
}

func (it identityTracer) AfterPass(f *lir.Function, app *lir.PassApplication) {
	hash := lir.HashFunction(f)
	if app.After != hash || app.Fired != (app.Ran && hash != app.Before) {
		it.t.Errorf("%s after %s: record says after=%016x fired=%t, the function hashes %016x (before %016x)",
			f.Name, app.Spec.Name, app.After, app.Fired, hash, app.Before)
	}
	fmt.Fprintf(it.h, "pass %s ran=%t hash=%016x dropped=%d\n", app.Spec.Name, app.Ran, hash, app.Dropped)
	lines := make([]string, len(app.Notes))
	for i, n := range app.Notes {
		lines[i] = fmt.Sprintf("note %s %s %v\n", n.Rule, n.Anchor, n.Detail)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprint(it.h, l)
	}
	if app.Err != nil {
		fmt.Fprintf(it.h, "pass error %s\n", app.Err)
	}
}

// identityDigest compiles every compilable method of prog under cfg and
// returns the SHA-256 over each method's per-pass trace, error text, and
// machine-code hash.
func identityDigest(t testing.TB, prog *dex.Program, cfg lir.Config, static *sa.Result) string {
	h := sha256.New()
	cfg.Trace = identityTracer{t, h}
	for i, m := range prog.Methods {
		if m.Uncompilable {
			continue
		}
		fmt.Fprintf(h, "method %s\n", m.Name)
		fn, err := lir.CompileMethod(prog, dex.MethodID(i), cfg, nil, static)
		if err != nil {
			fmt.Fprintf(h, "error %s\n", err)
			continue
		}
		code := machine.NewProgram()
		code.Fns[dex.MethodID(i)] = fn
		fmt.Fprintf(h, "code %016x\n", machine.HashProgram(code))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCompileIdentity pins, for every app and every pipeline of the matrix,
// the exact IR after every pass, every rewrite note, every error, and the
// lowered code. A change that only makes the compiler faster must leave
// testdata/compile_identity.txt alone; regenerate it only for an intended
// change of compiler output, with
//
//	go test ./internal/lir -run TestCompileIdentity -update-identity
func TestCompileIdentity(t *testing.T) {
	configs := identityConfigs()
	specs := apps.All()
	lines := make([][]string, len(specs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec apps.Spec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			app, err := apps.Build(spec)
			if err != nil {
				errs[i] = err
				return
			}
			static := profile.Analyze(app.Prog).Effects
			vra.Attach(static)
			pts.Attach(static)
			for _, c := range configs {
				lines[i] = append(lines[i], spec.Name+"\t"+c.label+"\t"+identityDigest(t, app.Prog, c.cfg, static))
			}
		}(i, spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, l := range lines {
		got = append(got, l...)
	}
	checkIdentity(t, identityFile, got)
}

// unswitchIdentitySrc has loops that unswitch duplicates, with several
// loop-carried values merged at the exit; no app has such a loop, so
// TestCompileIdentity never sees unswitch fire.
const unswitchIdentitySrc = `
func work(int n, int m, int d) int {
	int s = 1;
	int t = 2;
	int i = 0;
	while (i < n) {
		t = t + s;
		if (m > d) { s = s + i * 3 + t; }
		else { s = s - i + t / 7; }
		s = s % 1000;
		i = i + 1;
	}
	return s + i * 10 + t;
}
func nest(int n, int m) int {
	int acc = 0;
	for (int j = 0; j < n; j = j + 1) {
		int k = 0;
		int x = j;
		while (k < n) {
			x = x + k;
			if (m == 3) { acc = acc + x; } else { acc = acc - k; }
			k = k + 1;
		}
		acc = acc + k + x;
	}
	return acc;
}
func main() int {
	return work(20, 3, 1) + work(17, 1, 4) + nest(6, 3) + nest(5, 2);
}
`

// TestUnswitchIdentity pins unswitch's output the way TestCompileIdentity
// pins the apps': on unswitchIdentitySrc and three progen programs where it
// fires, alone and after passes that reshape or annotate the loop. Update it
// with the same flag.
func TestUnswitchIdentity(t *testing.T) {
	srcs := []string{unswitchIdentitySrc}
	for _, seed := range []int64{11, 19, 22} {
		srcs = append(srcs, progen.Generate(rand.New(rand.NewSource(seed)), progen.Default()))
	}
	var configs []identityConfig
	for _, passes := range [][]string{
		{"unswitch"},
		{"rangecheckelim", "unswitch", "simplifycfg", "unroll"},
		{"licm", "unswitch", "simplifycfg", "unroll"},
		{"inline", "unroll", "unswitch", "simplifycfg", "unroll"},
		{"peel", "simplifycfg", "unswitch", "simplifycfg", "unroll"},
		{"gvn", "rangebranch", "unswitch", "simplifycfg", "unroll"},
	} {
		cfg := lir.O1()
		for _, p := range passes {
			cfg.Passes = append(cfg.Passes, lir.PassSpec{Name: p})
		}
		configs = append(configs, identityConfig{"O1+" + strings.Join(passes, "+"), cfg})
	}
	var got []string
	for i, src := range srcs {
		prog, err := minic.CompileSource(fmt.Sprintf("p%d", i), src)
		if err != nil {
			t.Fatal(err)
		}
		static := profile.Analyze(prog).Effects
		for _, c := range configs {
			got = append(got, fmt.Sprintf("p%d\t%s\t%s", i, c.label, identityDigest(t, prog, c.cfg, static)))
		}
	}
	checkIdentity(t, unswitchIdentityFile, got)
}

// checkIdentity compares got, "name\tconfig\tdigest" lines, with the
// digests recorded in file, or records them under -update-identity.
func checkIdentity(t *testing.T, file string, got []string) {
	t.Helper()
	if *updateIdentity {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), file)
		return
	}
	want := readIdentity(t, file)
	if len(want) != len(got) {
		t.Errorf("%d digests, want %d", len(got), len(want))
	}
	bad := 0
	for _, l := range got {
		key := l[:strings.LastIndexByte(l, '\t')]
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no recorded digest", key)
			bad++
		} else if w != l {
			t.Errorf("%s: compile output changed", key)
			bad++
		}
		if bad >= 20 {
			t.Fatal("too many differences")
		}
	}
}

// readIdentity loads the recorded digests keyed by "app\tconfig".
func readIdentity(t *testing.T, file string) map[string]string {
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		l := sc.Text()
		out[l[:strings.LastIndexByte(l, '\t')]] = l
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
