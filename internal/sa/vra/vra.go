// Package vra computes interprocedural value-range summaries over the CHA/RTA
// call graph: for every method, the joined range of each argument its callers
// pass and of each value it can return. The summaries feed the intraprocedural
// engine in internal/lir (AnalyzeRanges), which the range passes — the §3.5
// check-elimination story, Fig. 6's analyze stage — use to discharge the
// bounds checks and zero-divisor trap guards the HGraph frontend inserts.
//
// The package sits above both internal/sa (lattice types, call graph, SCC
// condensation) and internal/lir (SSA construction and the per-function
// engine): sa cannot import lir, so the driver that needs both lives here and
// hands its result back via Attach(static). Everything is deterministic — a
// pure function of the program — so attaching summaries never perturbs
// lir.Config fingerprints or GA search traces.
package vra

import (
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/sa"
)

// rounds is the number of return/parameter sweeps. Each sweep only narrows
// summaries that start at top, so any prefix of the sequence is sound; two
// rounds let return ranges flow into parameter summaries and back.
const rounds = 2

// Attach computes interprocedural range summaries for static.Prog and stores
// them in static.Ranges, where the lir range passes read them. Idempotent and
// deterministic: calling it again recomputes byte-identical summaries.
func Attach(static *sa.Result) {
	static.Ranges = nil // drop stale summaries; the engine reads through static
	prog := static.Prog
	n := len(prog.Methods)
	sums := make([]sa.RangeSummary, n)
	for i, m := range prog.Methods {
		ps := make([]sa.ValRange, m.NumArgs)
		for j := range ps {
			ps[j] = sa.TopRange()
		}
		sums[i] = sa.RangeSummary{Params: ps, Ret: sa.TopRange()}
	}
	// The working slice is attached before the fixpoint: AnalyzeRanges reads
	// parameter and return summaries through static.Ranges, so in-progress
	// states must be visible. Every intermediate state over-approximates the
	// concrete semantics (all slots start at top and each sweep narrows from
	// a sound previous iterate), so early reads stay sound.
	static.Ranges = sums

	fns := buildSSACache(prog)

	// Reverse-topological components: a forward pass sees callees before
	// callers, so return summaries propagate bottom-up in one sweep.
	_, comps := sa.Condense(n, func(v dex.MethodID) []dex.MethodID {
		return static.Graph.Callees[v]
	})

	for round := 0; round < rounds; round++ {
		// Phase A: return summaries, callees first.
		for _, c := range comps {
			for _, m := range c {
				if fns[m] == nil {
					continue
				}
				sums[m].Ret = lir.AnalyzeRanges(fns[m], static).ReturnRange()
			}
		}
		// Phase B: parameter summaries. All call sites are accumulated into
		// a fresh table first and committed at once, so a summary never
		// narrows based on a half-updated iterate of itself.
		pend := accumulateCallSites(static, fns)
		for i := 0; i < n; i++ {
			if !callersKnown(static, fns, dex.MethodID(i)) || pend[i] == nil {
				continue // stays top: some invocation escapes the analysis
			}
			copy(sums[i].Params, pend[i])
		}
	}
}

// buildSSACache constructs SSA once per analyzable method. Uncompilable
// methods and frontend failures yield nil — their bodies contribute no call
// sites and their summaries stay top.
func buildSSACache(prog *dex.Program) []*lir.Function {
	fns := make([]*lir.Function, len(prog.Methods))
	for i := range prog.Methods {
		if prog.Methods[i].Uncompilable {
			continue
		}
		if f, err := lir.BuildSSA(prog, dex.MethodID(i)); err == nil {
			fns[i] = f
		}
	}
	return fns
}

// accumulateCallSites joins the argument ranges of every analyzable call site
// into a per-callee table (nil where no site was seen). Virtual calls fan out
// to every CHA/RTA implementation of the declared target. Iteration is by
// method index with program-order call sites and sorted ImplsOf lists, so the
// result is deterministic.
func accumulateCallSites(static *sa.Result, fns []*lir.Function) [][]sa.ValRange {
	n := len(static.Prog.Methods)
	pend := make([][]sa.ValRange, n)
	addSite := func(callee dex.MethodID, args []sa.ValRange) {
		if callee < 0 || int(callee) >= n {
			return
		}
		na := static.Prog.Methods[callee].NumArgs
		row := pend[callee]
		if row == nil {
			row = make([]sa.ValRange, na)
			for j := range row {
				row[j] = sa.BottomRange()
			}
			pend[callee] = row
		}
		k := min(na, len(args))
		for j := 0; j < k; j++ {
			row[j] = row[j].Join(args[j])
		}
		for j := k; j < na; j++ {
			row[j] = sa.TopRange() // arity mismatch: no claim about the slot
		}
	}
	for i := 0; i < n; i++ {
		if fns[i] == nil {
			continue
		}
		lir.AnalyzeRanges(fns[i], static).CallSites(func(call *lir.Value, args []sa.ValRange) {
			if call.Op == lir.OpCallStatic {
				addSite(dex.MethodID(call.Sym), args)
				return
			}
			for _, impl := range static.Graph.ImplsOf(dex.MethodID(call.Sym)) {
				addSite(impl, args)
			}
		})
	}
	return pend
}

// callersKnown reports whether every way id can be invoked flows through a
// call site the accumulator saw: id is not the program entry (invoked from
// outside any managed body) and every caller on the precise graph has SSA.
// Otherwise the parameter summary must stay top.
func callersKnown(static *sa.Result, fns []*lir.Function, id dex.MethodID) bool {
	if id == static.Prog.Entry {
		return false
	}
	for _, c := range static.Graph.Callers[id] {
		if fns[c] == nil {
			return false
		}
	}
	return true
}

// Narrowed counts parameter and return slots carrying a fact narrower than
// top — the observability number reported by core's prepare span and the
// salint range totals.
func Narrowed(sums []sa.RangeSummary) (params, rets int) {
	for i := range sums {
		for _, p := range sums[i].Params {
			if !p.IsTop() {
				params++
			}
		}
		if !sums[i].Ret.IsTop() {
			rets++
		}
	}
	return params, rets
}
