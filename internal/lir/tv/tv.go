// Package tv is a translation-validation layer over the lir pass pipeline
// (§2, Fig. 1). It snapshots each function before a pass runs and afterwards
// tries to prove the pass preserved behavior; a proof failure is recorded —
// and optionally turned into an early compile rejection — *before* the
// expensive interpreted-replay evaluation the paper uses as ground truth
// (§3.4). The validator is deliberately one-sided: Rejected is only returned
// for provable miscompiles (or strict SSA violations), never for
// transformations it merely cannot follow, which become Unverified.
package tv

import (
	"fmt"

	"replayopt/internal/lir"
)

// Verdict classifies one pass application.
type Verdict uint8

// Verdicts.
const (
	// Verified: the pass provably preserved behavior.
	Verified Verdict = iota
	// Unverified: the validator could not follow the transformation. Not a
	// defect claim — CFG-restructuring passes routinely land here.
	Unverified
	// Rejected: the pass provably changed observable behavior, or broke the
	// strict SSA invariants. The candidate is a miscompile.
	Rejected
)

func (v Verdict) String() string {
	switch v {
	case Verified:
		return "verified"
	case Unverified:
		return "unverified"
	case Rejected:
		return "rejected"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// RejectError aborts a compile whose pipeline provably miscompiled. The GA
// classifies it as the tv-reject outcome, distinct from compiler crashes.
type RejectError struct {
	Pass   string
	Fn     string
	Reason string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("tv: pass %s rejected on %s: %s", e.Pass, e.Fn, e.Reason)
}

// PassVerdict is one recorded pass application.
type PassVerdict struct {
	Fn      string
	Pass    string
	Verdict Verdict
	Reason  string
}

// strictPrefix starts the reason of a Rejected verdict that lir.VerifyIR
// raised (Options.Strict), as opposed to one the equivalence check proved.
const strictPrefix = "strict: "

// Options configure a Checker.
type Options struct {
	// Reject makes a Rejected verdict abort the compile with a RejectError.
	// Off, the checker only records verdicts (cmd/tvlint's audit mode).
	Reject bool
	// Strict additionally runs lir.VerifyIR after every pass; a violation is
	// a Rejected verdict attributed to that pass, with reason
	// "strict: lir-verify: ...". It is the only switch for verifying IR
	// between passes.
	Strict bool
}

// Checker implements lir.PipelineCheck: it snapshots the function before each
// pass and validates the result against the snapshot. One Checker serves one
// sequential compile; it is not safe for concurrent use.
//
// Most pass applications leave the function unchanged, and the checker does
// not pay for them again. It keeps its snapshot while the function still
// equals it (lir.SameIR): BeforePass clones only for a new function or after
// an application that changed it. The strict check runs once per snapshot (a
// changing application has already run it on the result), so a violation
// keeps its reason and its application. An unchanged application's verdict
// is the snapshot's verdict against itself, which selfVerifies proves to be
// Verified where it can; elsewhere the application is validated in full.
type Checker struct {
	Opts     Options
	Verdicts []PassVerdict

	// The snapshot's storage, the validator's tables, and their scratch
	// are reused snapshot after snapshot.
	snap   *lir.Function
	cloner lir.Cloner
	ev     equiv

	// What the checker knows of the function as the last AfterPass left it:
	// last is that function, unchanged says it still equals snap, verified
	// that it passed lir.VerifyIR, and selfVerified that selfVerifies then
	// proved it. BeforePass clears last, so an application whose AfterPass
	// never ran (the compile aborted) leaves nothing behind.
	last                              *lir.Function
	unchanged, verified, selfVerified bool

	// full sends every application down the changed path: clone, verify
	// and validate in full. Tests set it to check the shortcuts against it.
	full bool
}

// NewChecker returns a checker with the given options.
func NewChecker(opts Options) *Checker { return &Checker{Opts: opts} }

// BeforePass snapshots the function, unless the snapshot still equals it.
func (c *Checker) BeforePass(f *lir.Function, app *lir.PassApplication) {
	last := c.last
	c.last = nil
	if last == f && c.unchanged {
		return
	}
	if last != f {
		c.verified, c.selfVerified = false, false
	}
	c.snap = c.cloner.Clone(f)
}

// AfterPass validates the pass result against the snapshot, records the
// verdict in Verdicts and in app, and (with Opts.Reject) vetoes provable
// miscompiles.
func (c *Checker) AfterPass(f *lir.Function, app *lir.PassApplication) error {
	pass := app.Spec.Name
	c.last = f
	c.unchanged = !c.full && c.snap != nil && lir.SameIR(c.snap, f)
	if !c.unchanged {
		c.verified, c.selfVerified = false, false
	}
	verdict, reason := Verified, ""
	if c.Opts.Strict && !c.verified {
		err := lir.VerifyIR(f)
		if err != nil {
			verdict, reason = Rejected, strictPrefix+err.Error()
		}
		c.verified = err == nil
		c.selfVerified = c.verified && c.ev.selfVerifies(f)
	}
	if verdict != Rejected && c.snap != nil && !(c.unchanged && c.selfVerified) {
		verdict, reason = c.ev.validate(c.snap, f, app.Info.CFG)
	}
	c.Verdicts = append(c.Verdicts, PassVerdict{Fn: f.Name, Pass: pass, Verdict: verdict, Reason: reason})
	app.Verdict, app.VerdictReason = verdict.String(), reason
	if c.Opts.Reject && verdict == Rejected {
		return &RejectError{Pass: pass, Fn: f.Name, Reason: reason}
	}
	return nil
}

// Counts tallies verdicts by kind.
func (c *Checker) Counts() (verified, unverified, rejected int) {
	for _, pv := range c.Verdicts {
		switch pv.Verdict {
		case Verified:
			verified++
		case Unverified:
			unverified++
		case Rejected:
			rejected++
		}
	}
	return
}
