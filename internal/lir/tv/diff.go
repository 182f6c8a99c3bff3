package tv

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/minic"
	"replayopt/internal/progen"
	"replayopt/internal/rt"

	"replayopt/internal/dex"
)

// DiffOptions bound a Differential run.
type DiffOptions struct {
	// Seeds is the number of random programs per pass (default 10).
	Seeds int
	// Passes names the passes to drill; default: every registered pass.
	Passes []string
	// MaxCycles bounds each concrete execution (default 50M).
	MaxCycles int64
}

// DiffFailure is one pass defect found by the fuzzer, shrunk to a minimal
// reproducing source.
type DiffFailure struct {
	Pass   string `json:"pass"`
	Seed   int64  `json:"seed"`
	Kind   string `json:"kind"` // verifier | rejected | wrong-output | runtime-crash
	Detail string `json:"detail"`
	Source string `json:"source"` // shrunk reproducer
}

// Differential cross-checks each pass on progen-generated programs: the
// interpreter's result is ground truth; a pass applied alone on top of O0
// must preserve it, pass lir.VerifyIR, and never earn a Rejected verdict.
// Failures are shrunk line-by-line to a minimal source. Deterministic for a
// given options value.
func Differential(opts DiffOptions) []DiffFailure {
	if opts.Seeds <= 0 {
		opts.Seeds = 10
	}
	if opts.MaxCycles <= 0 {
		opts.MaxCycles = 50_000_000
	}
	passes := opts.Passes
	if len(passes) == 0 {
		passes = lir.PassNames()
	}
	var fails []DiffFailure
	for _, pass := range passes {
		for s := 0; s < opts.Seeds; s++ {
			seed := int64(s)*1021 + 17
			src := progen.Generate(rand.New(rand.NewSource(seed)), progen.Default())
			fail := checkOne(src, pass, opts.MaxCycles)
			if fail == nil {
				continue
			}
			fail.Seed = seed
			fail.Source = shrink(src, pass, opts.MaxCycles, fail.Kind)
			fails = append(fails, *fail)
			break // one reproducer per pass is enough
		}
	}
	return fails
}

// checkOne runs one source through interpreter vs O0+pass, returning the
// failure or nil.
func checkOne(src, pass string, maxCycles int64) *DiffFailure {
	prog, err := minic.CompileSource("gen", src)
	if err != nil {
		return nil // uninteresting: generator produced an uncompilable program
	}
	want, err := interpret(prog, maxCycles)
	if err != nil {
		return nil // baseline itself traps or times out: no ground truth
	}
	cfg := lir.O0()
	cfg.Passes = []lir.PassSpec{{Name: pass}}
	cfg.Check = NewChecker(Options{Strict: true, Reject: true})
	code, err := lir.Compile(prog, nil, cfg, nil, nil)
	var rej *RejectError
	if errors.As(err, &rej) {
		if strings.HasPrefix(rej.Reason, strictPrefix) {
			return &DiffFailure{Pass: pass, Kind: "verifier", Detail: rej.Reason}
		}
		return &DiffFailure{Pass: pass, Kind: "rejected", Detail: rej.Reason}
	}
	if err != nil {
		// Designed compile-time outcomes (vectorize's crash on calls, the
		// growth cap) are not defects.
		return nil
	}
	got, err := execute(prog, code, maxCycles)
	if err != nil {
		return &DiffFailure{Pass: pass, Kind: "runtime-crash", Detail: err.Error()}
	}
	if got != want {
		return &DiffFailure{Pass: pass, Kind: "wrong-output",
			Detail: fmt.Sprintf("interp %d, compiled %d", int64(want), int64(got))}
	}
	return nil
}

func interpret(prog *dex.Program, maxCycles int64) (uint64, error) {
	proc := rt.NewProcess(prog, rt.Config{})
	e := interp.NewEnv(proc)
	e.MaxCycles = uint64(maxCycles)
	return e.Run()
}

func execute(prog *dex.Program, code *machine.Program, maxCycles int64) (uint64, error) {
	proc := rt.NewProcess(prog, rt.Config{})
	x := machine.NewExec(proc, code)
	x.MaxCycles = uint64(maxCycles)
	return x.Call(prog.Entry, nil)
}

// shrink minimizes a differential failure: the oracle is "the same failure
// kind persists".
func shrink(src, pass string, maxCycles int64, kind string) string {
	return ShrinkLines(src, func(s string) bool {
		f := checkOne(s, pass, maxCycles)
		return f != nil && f.Kind == kind
	})
}

// ShrinkLines greedily deletes source spans while reproduces keeps returning
// true: whole brace-balanced blocks first (an `if (...) {` line cannot go
// without its closing brace), then single lines. It is the shared minimizer
// behind the differential fuzzer's reproducers and cmd/rtrace's bisection
// reproducers; reproduces must be deterministic or the result is arbitrary.
func ShrinkLines(src string, reproduces func(string) bool) string {
	lines := strings.Split(src, "\n")
	// closingBrace returns the line index closing the block opened at i,
	// or -1 when line i opens no block.
	closingBrace := func(lines []string, i int) int {
		if !strings.HasSuffix(strings.TrimSpace(lines[i]), "{") {
			return -1
		}
		depth := 0
		for j := i; j < len(lines); j++ {
			depth += strings.Count(lines[j], "{") - strings.Count(lines[j], "}")
			if depth == 0 {
				return j
			}
		}
		return -1
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(lines); i++ {
			var spans [][2]int
			if j := closingBrace(lines, i); j > i {
				spans = append(spans, [2]int{i, j})
			}
			spans = append(spans, [2]int{i, i})
			for _, sp := range spans {
				cand := make([]string, 0, len(lines))
				cand = append(cand, lines[:sp[0]]...)
				cand = append(cand, lines[sp[1]+1:]...)
				if reproduces(strings.Join(cand, "\n")) {
					lines = cand
					changed = true
					i--
					break
				}
			}
		}
	}
	return strings.Join(lines, "\n")
}
