package lir

import (
	"fmt"
	"strings"
)

// AnalysisState renders what a function carries besides the IR that
// HashFunction covers: the ID counters, Recompute's CFG stamp, and every
// block's rpo, IDom and dominator-tree numbering, in Blocks order.
func AnalysisState(f *Function) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "next v%d b%d stamp %v\n", f.nextValueID, f.nextBlockID, f.stamp)
	for _, b := range f.Blocks {
		idom := -1
		if b.IDom != nil {
			idom = b.IDom.ID
		}
		fmt.Fprintf(&sb, "b%d rpo %d idom b%d dom [%d,%d]\n", b.ID, b.rpo, idom, b.domPre, b.domPost)
	}
	return sb.String()
}

// OnStampSkip checks every Recompute that the CFG stamp ends early: it runs
// the full recompute on a clone and calls report with the first difference
// in block order, edges, rpo, IDom or dominator numbering (nil when there is
// none). The returned function removes the check. The hook is global; report
// must be safe for concurrent use.
func OnStampSkip(report func(f *Function, err error)) (restore func()) {
	stampHit = func(f *Function) {
		want, _ := fullRecompute(f)
		report(f, diffLines(AnalysisState(f), want))
	}
	return func() { stampHit = nil }
}

// fullRecompute runs the full recompute on a clone of f and returns the
// clone's AnalysisState and HashFunction.
func fullRecompute(f *Function) (state string, hash uint64) {
	c := Clone(f)
	c.recompute()
	c.stampCFG()
	return AnalysisState(c), HashFunction(c)
}

// diffLines reports the first line where the skipped Recompute's state
// (got) and the full one's (want) differ.
func diffLines(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Errorf("line %d: skipped %q, full %q", i, g[i], w[i])
		}
	}
	return fmt.Errorf("skipped state has %d lines, full %d", len(g), len(w))
}

// ReplaceUses substitutes old with new in every argument list of f: the
// eager, whole-function replacement that substitution defers.
func (f *Function) ReplaceUses(old, new *Value) {
	for _, b := range f.Blocks {
		for _, vs := range [2][]*Value{b.Phis, b.Insns} {
			for _, v := range vs {
				for i, a := range v.Args {
					if a == old {
						v.Args[i] = new
					}
				}
			}
		}
	}
}

// PrunePhis is prunePhis; it returns the substitution's work count.
func PrunePhis(f *Function) int { return prunePhis(f) }

// PrunePhisEager is the reference for prunePhis: the same scan, replacing
// each trivial phi's uses at once with ReplaceUses, which sweeps the whole
// function per removed phi.
func PrunePhisEager(f *Function) {
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			kept := b.Phis[:0]
			for _, phi := range b.Phis {
				var uniq *Value
				trivial := true
				for _, a := range phi.Args {
					if a == phi {
						continue
					}
					if uniq == nil {
						uniq = a
					} else if uniq != a {
						trivial = false
						break
					}
				}
				if trivial && uniq != nil {
					f.ReplaceUses(phi, uniq)
					changed = true
					continue
				}
				kept = append(kept, phi)
			}
			b.Phis = kept
		}
	}
}
