package lir

import "math"

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
// value in any process.
func HashFunction(f *Function) uint64 {
	h := uint64(fnvOffset64)
	h = fnvHashWord(h, int64(len(f.Blocks)))
	for _, b := range f.Blocks {
		h = fnvHashWord(h, int64(b.ID))
		h = fnvHashWord(h, int64(len(b.Phis)))
		for _, v := range b.Phis {
			h = fnvHashValue(h, v)
		}
		h = fnvHashWord(h, int64(len(b.Insns)))
		for _, v := range b.Insns {
			h = fnvHashValue(h, v)
		}
		h = fnvHashWord(h, int64(len(b.Succs)))
		for _, s := range b.Succs {
			h = fnvHashWord(h, int64(s.ID))
		}
		h = fnvHashWord(h, int64(len(b.Preds)))
		for _, p := range b.Preds {
			h = fnvHashWord(h, int64(p.ID))
		}
	}
	return h
}

// fnv1a64 constants, identical to machine.HashProgram's so every fingerprint
// in the system shares one digest family.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvHashWord(h uint64, v int64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(v>>i))) * fnvPrime64
	}
	return h
}

func fnvHashValue(h uint64, v *Value) uint64 {
	h = fnvHashWord(h, int64(v.ID))
	h = fnvHashWord(h, int64(v.Op))
	h = fnvHashWord(h, int64(v.Type))
	h = fnvHashWord(h, v.Imm)
	h = fnvHashWord(h, int64(math.Float64bits(v.F)))
	h = fnvHashWord(h, int64(v.Sym))
	h = fnvHashWord(h, v.Slot)
	h = fnvHashWord(h, int64(v.Cond))
	h = fnvHashWord(h, int64(v.Hint))
	if v.NoTrap {
		h = fnvHashWord(h, 1)
	}
	h = fnvHashWord(h, int64(len(v.Args)))
	for _, a := range v.Args {
		h = fnvHashWord(h, int64(a.ID))
	}
	return h
}
