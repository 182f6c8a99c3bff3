// Search checkpointing and interruption. A fleet-scale coordinator (ROADMAP
// item 1, the crowdsourced loop of Mpeis et al. 2015 around the paper's
// Fig. 6 search) must survive being killed mid-search without re-running
// finished work. Both hooks lean on the same §3.6/§3.7 determinism property
// the parallel evaluator already enforces: the search's decisions are a pure
// function of (seed, evaluation results), so re-running a search whose
// finished evaluations are served back verbatim reproduces the original
// decision sequence byte for byte and continues it with fresh work only.

package ga

import "errors"

// Journal persists finished evaluations across process lifetimes. When
// Options.Journal is set, every fresh measurement is offered to Lookup first
// (keyed by the configuration fingerprint — the same key as the in-run memo
// cache) and recorded via Record after it lands in the trace.
//
// Contract: Lookup may be called concurrently from Options.Parallelism
// evaluation workers and must be safe for that; Record is only ever called
// from the single search goroutine, in trace order. A Lookup hit must return
// the Evaluation exactly as recorded — the search steers on its bytes, and a
// resumed search is byte-identical to the original only if the journal is
// faithful.
type Journal interface {
	// Lookup returns the recorded evaluation of a configuration fingerprint.
	Lookup(fp uint64) (Evaluation, bool)
	// Record persists one fresh evaluation. Implementations decide their own
	// durability (the fleet journal appends a line and syncs); errors are the
	// implementation's to surface — the search itself never fails on a
	// journal write, it only loses resumability.
	Record(fp uint64, ev Evaluation)
}

// ErrInterrupted is what RecoverInterrupt returns when Options.Interrupt
// reported true. The search state is abandoned, but every finished
// evaluation has already reached the Journal (when one is attached), so a
// later run with the same seed and the same journal resumes exactly where
// this one stopped.
var ErrInterrupted = errors.New("ga: search interrupted")

// interruptPanic unwinds the search goroutine when Options.Interrupt fires.
// It is raised only between evaluation batches on the goroutine that called
// Search — never inside a worker — so no evaluation is torn mid-flight.
type interruptPanic struct{}

// RecoverInterrupt converts a recovered panic value into the interruption
// error, re-panicking on anything that is not the search's own unwind.
// Callers that reach Search through a higher layer (e.g. core.Optimize) use
// it in a deferred recover to turn a drain request into ErrInterrupted:
//
//	defer func() {
//		if r := recover(); r != nil {
//			err = ga.RecoverInterrupt(r)
//		}
//	}()
func RecoverInterrupt(r any) error {
	if _, ok := r.(interruptPanic); ok {
		return ErrInterrupted
	}
	panic(r)
}
