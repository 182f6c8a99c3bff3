package tv

import (
	"replayopt/internal/lir"
)

// MiscompilePassName is the registry name of the deliberately broken pass.
const MiscompilePassName = "tvbreak"

// MiscompilePass returns a deliberately miscompiling pass for validator and
// GA drills: it skews the first integer store found in a block that
// dominates every function exit by +1. The mutation is chosen so that it is
// (a) statically provable — the stored value becomes old+1 in code that runs
// on every terminating execution, exactly the disprover's pattern — and
// (b) dynamically persistent: no legitimate pass un-adds a constant, so the
// wrong value survives to the verification map. Register it only through
// lir.RegisterForTesting; it must never reach the real catalog.
func MiscompilePass() *lir.PassInfo {
	return &lir.PassInfo{
		Name:   MiscompilePassName,
		Doc:    "test-only: skew the first always-executed integer store by +1",
		Unsafe: true,
		Run: func(f *lir.Function, _ *lir.PassContext, _ map[string]int) error {
			skewFirstStore(f)
			return nil
		},
	}
}

// skewFirstStore performs the mutation; it reports whether it changed
// anything (no qualifying store leaves the function untouched).
func skewFirstStore(f *lir.Function) bool {
	d := lir.DominanceOf(f)
	for _, b := range f.Blocks {
		if !d.Reachable(b) || !dominatesAllExits(f, d, b) {
			continue
		}
		for i, v := range b.Insns {
			var argIdx int
			switch v.Op {
			case lir.OpArrStore:
				argIdx = 2
			case lir.OpFieldStore:
				argIdx = 1
			case lir.OpStaticStore:
				argIdx = 0
			default:
				continue
			}
			old := v.Args[argIdx]
			if old.Type != lir.TInt {
				continue
			}
			one := f.NewValue(lir.OpConstInt, lir.TInt)
			one.Imm = 1
			skew := f.NewValue(lir.OpAdd, lir.TInt, old, one)
			one.Block, skew.Block = b, b
			b.Insns = append(b.Insns[:i:i], append([]*lir.Value{one, skew}, b.Insns[i:]...)...)
			v.Args[argIdx] = skew
			return true
		}
	}
	return false
}
