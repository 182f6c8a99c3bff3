// Image fingerprinting. The hash identifies generated code images for the
// GA's identical-binaries halt (§3.6) and anchors rewrite-trace replay: the
// rtrace replayer proves a mechanically re-executed trace reproduces the
// exact image the original compile produced (ROADMAP item 4).

package machine

import (
	"math"
	"math/bits"

	"replayopt/internal/dex"
)

// fnv1a64 constants (FNV-1a, 64 bit) — the hash is computed inline below so
// the per-field loop stays call-free; the digest is bit-identical to feeding
// the same little-endian words through hash/fnv. FNVOffset64 is the state
// every fingerprint starts from, here and in lir.HashFunction.
const (
	FNVOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvZeroPow[k] is fnvPrime64^k: folding k zero bytes multiplies the state
// by it, since (h ^ 0) * p = h * p.
var fnvZeroPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// FNVWord folds one little-endian 64-bit word into an FNV-1a state. It
// folds the bytes up to the highest nonzero one and then multiplies by the
// prime once per remaining zero byte, which is what folding those bytes one
// by one does; most instruction and IR fields are small, so most of a word
// is zero bytes.
func FNVWord(h uint64, v int64) uint64 {
	u := uint64(v)
	n := (bits.Len64(u) + 7) >> 3
	for i := 0; i < n; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime64
		u >>= 8
	}
	return h * fnvZeroPow[8-n]
}

// HashProgram fingerprints a code image: every function in method-id order,
// every instruction field. Runs once per candidate evaluation, so it is kept
// allocation- and call-free in the per-instruction loop.
func HashProgram(code *Program) uint64 {
	ids := make([]int, 0, len(code.Fns))
	//detlint:allow map-range — ids are sorted before hashing
	for id := range code.Fns {
		ids = append(ids, int(id))
	}
	sortInts(ids)
	h := uint64(FNVOffset64)
	for _, id := range ids {
		fn := code.Fns[dex.MethodID(id)]
		h = FNVWord(h, int64(id))
		for i := range fn.Code {
			in := &fn.Code[i]
			h = FNVWord(h, int64(in.Op))
			h = FNVWord(h, int64(in.A))
			h = FNVWord(h, int64(in.B))
			h = FNVWord(h, int64(in.C))
			h = FNVWord(h, int64(in.D))
			h = FNVWord(h, in.Imm)
			h = FNVWord(h, int64(math.Float64bits(in.F)))
			h = FNVWord(h, int64(in.Sym))
			h = FNVWord(h, in.Disp)
			h = FNVWord(h, int64(in.Cond))
			h = FNVWord(h, int64(in.Hint))
			for _, a := range in.Args {
				h = FNVWord(h, int64(a))
			}
		}
	}
	return h
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
