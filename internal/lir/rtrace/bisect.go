package rtrace

// Trace bisection: given a compile whose outcome is bad (a tv rejection, a
// verify mismatch against the interpreter, a perf regression) and the rewrite
// trace of the good/bad configuration, find the exact transform application
// that first makes it bad. The search runs over trace *prefixes* — pass
// applications are enabled mechanically through a PrefixTracer — so the
// oracle stays a whole-compile predicate and needs no pass internals. A
// greedy shrink then minimizes the enabled set around the pinned application,
// as the differential matrix's source shrinker (ShrinkLines, in the module
// root's pass_differential_test.go) minimizes a reproducer one level down.

import (
	"fmt"

	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/sa"
)

// PrefixTracer implements lir.RewriteTracer by mechanically enabling exactly
// the applications Enabled admits, counted in global seq order. It records
// nothing.
type PrefixTracer struct {
	Enabled func(seq int) bool
	seq     int
}

// BeforePass implements lir.RewriteTracer.
func (p *PrefixTracer) BeforePass(f *lir.Function, spec lir.PassSpec, info *lir.PassInfo, resolved map[string]int) bool {
	en := p.Enabled(p.seq)
	p.seq++
	return en
}

// AfterPass implements lir.RewriteTracer.
func (p *PrefixTracer) AfterPass(f *lir.Function, spec lir.PassSpec, info *lir.PassInfo, ran bool, notes []lir.RewriteNote, dropped int, err error) {
}

// Applications reports how many pass applications the traced compile reached.
func (p *PrefixTracer) Applications() int { return p.seq }

// CompileMasked compiles prog with only the admitted pass applications
// enabled — the building block for bisection oracles. It returns the compile
// result together with the number of applications seen.
func CompileMasked(prog *dex.Program, methods []dex.MethodID, cfg lir.Config, prof *lir.Profile, static *sa.Result, enabled func(seq int) bool) (*machine.Program, int, error) {
	pt := &PrefixTracer{Enabled: enabled}
	cfg.Trace = pt
	code, err := lir.Compile(prog, methods, cfg, prof, static)
	return code, pt.seq, err
}

// BisectResult pins the offending application.
type BisectResult struct {
	// BadSeq is the first application whose inclusion turns the outcome bad:
	// the prefix [0, BadSeq) is good, [0, BadSeq] is bad.
	BadSeq int `json:"bad_seq"`
	// Steps counts binary-search oracle invocations — guaranteed at most
	// ceil(log2(n)).
	Steps int `json:"steps"`
	// ShrinkSteps counts the greedy minimization's oracle invocations.
	ShrinkSteps int `json:"shrink_steps"`
	// Minimal is the smallest application set found that still reproduces
	// the bad outcome; it always contains BadSeq.
	Minimal []int `json:"minimal"`
}

// Bisect finds the smallest prefix of n applications whose compile is bad.
// bad runs the oracle against an enabled-set predicate and must be
// deterministic and monotone over prefixes (once the offending transform is
// in, the outcome stays bad — true for miscompiles that survive to the image,
// like tv-reject and wrong-output). Bisect first checks the endpoints: the
// full set must be bad and the empty set good, else the premise is wrong and
// an error is returned. Endpoint probes are not counted in Steps.
func Bisect(n int, bad func(enabled func(seq int) bool) bool) (*BisectResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rtrace: bisect over empty trace")
	}
	prefix := func(k int) func(int) bool {
		return func(seq int) bool { return seq < k }
	}
	if !bad(prefix(n)) {
		return nil, fmt.Errorf("rtrace: full trace does not reproduce the bad outcome")
	}
	if bad(prefix(0)) {
		return nil, fmt.Errorf("rtrace: outcome is bad with every transform disabled; the trace is not the cause")
	}
	res := &BisectResult{}
	// Invariant: bad(prefix(hi)), !bad(prefix(lo)).
	lo, hi := 0, n
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		res.Steps++
		if bad(prefix(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.BadSeq = hi - 1

	// Greedy shrink: drop every other enabled application that the outcome
	// does not depend on. The pinned application is never dropped.
	keep := make(map[int]bool, hi)
	for i := 0; i < hi; i++ {
		keep[i] = true
	}
	member := func(seq int) bool { return keep[seq] }
	for i := 0; i < hi; i++ {
		if i == res.BadSeq {
			continue
		}
		keep[i] = false
		res.ShrinkSteps++
		if !bad(member) {
			keep[i] = true
		}
	}
	for i := 0; i < hi; i++ {
		if keep[i] {
			res.Minimal = append(res.Minimal, i)
		}
	}
	return res, nil
}
