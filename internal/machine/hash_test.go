package machine

import (
	"hash/fnv"
	"math"
	"testing"
)

// fnvWordBytewise is FNVWord's reference: all eight little-endian bytes
// folded one at a time.
func fnvWordBytewise(h uint64, v int64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(v>>i))) * fnvPrime64
	}
	return h
}

// FuzzFNVWord checks FNVWord, which skips the trailing zero bytes of a word,
// against the byte-wise fold from any state, and against hash/fnv from the
// offset basis.
func FuzzFNVWord(f *testing.F) {
	for _, v := range []int64{0, 1, 0xff, 0x100, 0x1234, 1 << 40, 1 << 56, -1, -2,
		math.MaxInt64, math.MinInt64, int64(math.Float64bits(1.5))} {
		f.Add(uint64(FNVOffset64), v)
		f.Add(uint64(0), v)
		f.Add(^uint64(0), v)
	}
	f.Fuzz(func(t *testing.T, h uint64, v int64) {
		if got, want := FNVWord(h, v), fnvWordBytewise(h, v); got != want {
			t.Fatalf("FNVWord(%#x, %#x) = %#x, byte-wise %#x", h, v, got, want)
		}
		ref := fnv.New64a()
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		ref.Write(buf[:])
		if got, want := FNVWord(FNVOffset64, v), ref.Sum64(); got != want {
			t.Fatalf("FNVWord(offset, %#x) = %#x, hash/fnv %#x", v, got, want)
		}
	})
}
