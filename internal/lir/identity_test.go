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
	"replayopt/internal/ga"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/profile"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

var updateIdentity = flag.Bool("update-identity", false, "rewrite testdata/compile_identity.txt from the current compiler")

const identityFile = "testdata/compile_identity.txt"

// identityConfig is one pipeline of the compile-identity matrix.
type identityConfig struct {
	label string
	cfg   lir.Config
}

// identityConfigs lists the matrix: the three presets; every registered
// pass appended to O1 at its defaults, with every parameter at its maximum,
// and (for passes with several parameters) with each parameter alone at its
// maximum; and sixteen seeded random genomes drawn the way the GA's first
// generation draws them.
func identityConfigs() []identityConfig {
	out := []identityConfig{{"O1", lir.O1()}, {"O2", lir.O2()}, {"O3", lir.O3()}}
	withPass := func(label string, spec lir.PassSpec) {
		cfg := lir.O1()
		cfg.Passes = append(cfg.Passes, spec)
		out = append(out, identityConfig{label, cfg})
	}
	for _, name := range lir.PassNames() {
		info, _ := lir.PassByName(name)
		withPass("O1+"+name, lir.PassSpec{Name: name})
		if len(info.Params) == 0 {
			continue
		}
		all := map[string]int{}
		for _, ps := range info.Params {
			all[ps.Name] = ps.Max
		}
		withPass("O1+"+name+"(max)", lir.PassSpec{Name: name, Params: all})
		if len(info.Params) == 1 {
			continue
		}
		for _, ps := range info.Params {
			withPass(fmt.Sprintf("O1+%s(%s=%d)", name, ps.Name, ps.Max),
				lir.PassSpec{Name: name, Params: map[string]int{ps.Name: ps.Max}})
		}
	}
	for seed := int64(1); seed <= 16; seed++ {
		g := ga.RandomGenome(rand.New(rand.NewSource(seed)), ga.DefaultOptions())
		out = append(out, identityConfig{fmt.Sprintf("genome%d", seed), g.Decode()})
	}
	return out
}

// identityTracer feeds every pass application into the compile's digest:
// the function hash after the pass, its rewrite notes, and its error. Notes
// enter as a sorted multiset: the digests were recorded while bce still
// emitted its notes in map iteration order, when only the set was stable.
type identityTracer struct{ h hash.Hash }

func (t identityTracer) BeforePass(*lir.Function, lir.PassSpec, *lir.PassInfo, map[string]int) bool {
	return true
}

func (t identityTracer) AfterPass(f *lir.Function, spec lir.PassSpec, _ *lir.PassInfo, ran bool, notes []lir.RewriteNote, dropped int, err error) {
	fmt.Fprintf(t.h, "pass %s ran=%t hash=%016x dropped=%d\n", spec.Name, ran, lir.HashFunction(f), dropped)
	lines := make([]string, len(notes))
	for i, n := range notes {
		lines[i] = fmt.Sprintf("note %s %s %v\n", n.Rule, n.Anchor, n.Detail)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprint(t.h, l)
	}
	if err != nil {
		fmt.Fprintf(t.h, "pass error %s\n", err)
	}
}

// identityDigest compiles every compilable method of prog under cfg and
// returns the SHA-256 over each method's per-pass trace, error text, and
// machine-code hash.
func identityDigest(prog *dex.Program, cfg lir.Config, static *sa.Result) string {
	h := sha256.New()
	cfg.Trace = identityTracer{h}
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
				lines[i] = append(lines[i], spec.Name+"\t"+c.label+"\t"+identityDigest(app.Prog, c.cfg, static))
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
	if *updateIdentity {
		if err := os.MkdirAll(filepath.Dir(identityFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(identityFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), identityFile)
		return
	}
	want := readIdentity(t)
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
func readIdentity(t *testing.T) map[string]string {
	f, err := os.Open(identityFile)
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
