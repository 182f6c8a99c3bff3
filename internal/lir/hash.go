package lir

import (
	"math"

	"replayopt/internal/machine"
)

// Structural function hashing for the rewrite trace (DESIGN.md §12): every
// pass application is bracketed by before/after fragment hashes so a trace
// consumer can tell exactly which transforms fired and a mechanical replay
// can prove it reproduced the same IR at every step. The hash is structural,
// not textual: block order, ops, types, immediates, symbols, lowering hints
// (NoTrap), argument value IDs, phi wiring, and CFG edges all contribute,
// while the analysis caches (rpo, IDom, the dominator-tree numbering) do
// not — two functions hash equal iff a pass left no observable IR
// difference.

// HashFunction returns a stable 64-bit structural digest of f. It is a pure
// function of the IR: repeated calls on an unchanged function return the same
// value in any process. It folds words with machine.FNVWord, so every
// fingerprint in the system shares one digest family.
func HashFunction(f *Function) uint64 {
	h := uint64(machine.FNVOffset64)
	h = machine.FNVWord(h, int64(len(f.Blocks)))
	for _, b := range f.Blocks {
		h = machine.FNVWord(h, int64(b.ID))
		h = machine.FNVWord(h, int64(len(b.Phis)))
		for _, v := range b.Phis {
			h = fnvHashValue(h, v)
		}
		h = machine.FNVWord(h, int64(len(b.Insns)))
		for _, v := range b.Insns {
			h = fnvHashValue(h, v)
		}
		h = machine.FNVWord(h, int64(len(b.Succs)))
		for _, s := range b.Succs {
			h = machine.FNVWord(h, int64(s.ID))
		}
		h = machine.FNVWord(h, int64(len(b.Preds)))
		for _, p := range b.Preds {
			h = machine.FNVWord(h, int64(p.ID))
		}
	}
	return h
}

func fnvHashValue(h uint64, v *Value) uint64 {
	h = machine.FNVWord(h, int64(v.ID))
	h = machine.FNVWord(h, int64(v.Op))
	h = machine.FNVWord(h, int64(v.Type))
	h = machine.FNVWord(h, v.Imm)
	h = machine.FNVWord(h, int64(math.Float64bits(v.F)))
	h = machine.FNVWord(h, int64(v.Sym))
	h = machine.FNVWord(h, v.Slot)
	h = machine.FNVWord(h, int64(v.Cond))
	h = machine.FNVWord(h, int64(v.Hint))
	if v.NoTrap {
		h = machine.FNVWord(h, 1)
	}
	h = machine.FNVWord(h, int64(len(v.Args)))
	for _, a := range v.Args {
		h = machine.FNVWord(h, int64(a.ID))
	}
	return h
}
