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
type Checker struct {
	Opts     Options
	Verdicts []PassVerdict

	// The snapshot's storage, the validator's tables, and their scratch
	// are reused pass after pass: a snapshot is dead once AfterPass
	// returns.
	snap   *lir.Function
	cloner lir.Cloner
	ev     equiv
}

// NewChecker returns a checker with the given options.
func NewChecker(opts Options) *Checker { return &Checker{Opts: opts} }

// BeforePass snapshots the function.
func (c *Checker) BeforePass(f *lir.Function, app *lir.PassApplication) {
	c.snap = c.cloner.Clone(f)
}

// AfterPass validates the pass result against the snapshot, records the
// verdict in Verdicts and in app, and (with Opts.Reject) vetoes provable
// miscompiles.
func (c *Checker) AfterPass(f *lir.Function, app *lir.PassApplication) error {
	pass := app.Spec.Name
	verdict, reason := Verified, ""
	if c.Opts.Strict {
		if err := lir.VerifyIR(f); err != nil {
			verdict, reason = Rejected, strictPrefix+err.Error()
		}
	}
	if verdict != Rejected && c.snap != nil {
		verdict, reason = c.ev.validate(c.snap, f, app.Info.Traits)
	}
	c.Verdicts = append(c.Verdicts, PassVerdict{Fn: f.Name, Pass: pass, Verdict: verdict, Reason: reason})
	app.Verdict, app.VerdictReason = verdict.String(), reason
	c.snap = nil
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
