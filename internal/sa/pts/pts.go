// Package pts computes interprocedural points-to facts over the CHA/RTA call
// graph: for every method, a mod/ref location summary (which statics, field
// slots, and array-element classes it and its transitive callees may read or
// write, with virtual fan-out via ImplsOf), parameter-escape bits, and an
// escape verdict for every allocation site. The summaries feed the
// intraprocedural Andersen engine in internal/lir (AnalyzeAlias), which the
// alias-aware memory passes — storeforward, dse, licm, stackalloc, the §3.5
// search space widened — consume, and which the verify map uses to elide
// stores into provably non-escaping allocations.
//
// The package sits above both internal/sa (summary types, call graph, SCC
// condensation) and internal/lir (SSA construction and the per-function
// engine): sa cannot import lir, so the driver that needs both lives here and
// hands its result back via Attach(static), same shape as internal/sa/vra.
// One difference from vra matters: vra's summaries start at top and only
// narrow, so its in-progress states are sound to read early; this analysis
// starts optimistic (empty mod/ref, nothing escapes) and is sound only at the
// fixpoint, so Attach must finish every component before anything reads
// static.Alias. core.prepare runs it sequentially before any pass does.
// Everything is deterministic — a pure function of the program — so attaching
// summaries never perturbs lir.Config fingerprints or GA search traces.
package pts

import (
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/sa"
)

// Attach computes interprocedural alias summaries for static.Prog and stores
// them in static.Alias, where the alias-aware lir passes read them.
// Idempotent and deterministic: calling it again recomputes byte-identical
// summaries.
func Attach(static *sa.Result) {
	prog := static.Prog
	n := len(prog.Methods)
	al := sa.NewAliasSummaries(n)
	// The working structure is attached before the fixpoint so the engine's
	// Summarize can read callee summaries through static.Alias. Unlike vra,
	// in-progress states here UNDER-approximate (optimistic start), so no
	// other reader may observe static.Alias until Attach returns.
	static.Alias = al

	fns := lir.BuildAllSSA(prog)
	for i := range prog.Methods {
		if fns[i] == nil {
			al.ModRef[i] = sa.TopModRef()
			al.ParamEscape[i] = ^uint64(0)
		}
	}

	// Reverse-topological components: callees reach their fixpoint before
	// any caller summarizes, so each SCC only iterates over its own cycle.
	_, comps := sa.Condense(n, func(v dex.MethodID) []dex.MethodID {
		return static.Graph.Callees[v]
	})
	for _, c := range comps {
		// A summary can only grow, and each member's extraction is monotone
		// in the summaries it reads, so joining until nothing changes is a
		// fixpoint. The round cap is a safety net (the location and escape
		// lattices are tiny); a component that somehow exceeds it tops out.
		maxRounds := 4*len(c) + 4
		for round := 0; ; round++ {
			if round == maxRounds {
				for _, m := range c {
					al.ModRef[m] = sa.TopModRef()
					al.ParamEscape[m] = ^uint64(0)
				}
				break
			}
			changed := false
			for _, m := range c {
				if fns[m] == nil {
					continue
				}
				sum, pe := lir.AnalyzeAlias(fns[m], static).Summarize()
				if al.ModRef[m].Mod.AddSet(sum.Mod) {
					changed = true
				}
				if al.ModRef[m].Ref.AddSet(sum.Ref) {
					changed = true
				}
				if al.ParamEscape[m]|pe != al.ParamEscape[m] {
					al.ParamEscape[m] |= pe
					changed = true
				}
			}
			if !changed {
				break
			}
			// A singleton without a self-loop cannot feed itself: its first
			// extraction is already final.
			if len(c) == 1 && !selfRecursive(static, c[0]) {
				break
			}
		}
	}

	// Final pass against the stabilized summaries: per-site escape verdicts.
	// Sites of unanalyzable methods stay unknown (SiteEscapes answers true).
	for i := range prog.Methods {
		if fns[i] == nil {
			continue
		}
		lir.AnalyzeAlias(fns[i], static).SiteVerdicts(al.SetSite)
	}
}

// selfRecursive reports whether m appears in its own callee list.
func selfRecursive(static *sa.Result, m dex.MethodID) bool {
	for _, c := range static.Graph.Callees[m] {
		if c == m {
			return true
		}
	}
	return false
}

// Stats summarizes an attached result for observability spans and report
// totals: allocation sites analyzed, the subset proven non-escaping, and
// methods whose mod summary is narrower than top.
func Stats(al *sa.AliasSummaries) (sites, nonEscaping, boundedMethods int) {
	if al == nil {
		return 0, 0, 0
	}
	for _, s := range al.Sites {
		sites++
		if !al.SiteEscapes(s) {
			nonEscaping++
		}
	}
	for i := range al.ModRef {
		if !al.ModRef[i].Mod.Top {
			boundedMethods++
		}
	}
	return sites, nonEscaping, boundedMethods
}
