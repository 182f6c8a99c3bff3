package lir

import (
	"hash/fnv"
	"sort"
)

// Fingerprint returns a stable 64-bit identity for the configuration. It
// hashes the pass sequence with each pass's *explicit* parameters, as
// written, and the lowering options: {unroll} and {unroll factor=4} differ
// even though factor=4 is the default, and so do two entries that differ
// only in the catalog's position-padding key. Two configs fingerprint equal
// when they spell the same passes, parameters and lowering; any divergence
// — order, a parameter, a flag — fingerprints different. The GA's
// evaluation memo cache is keyed by it, so identical candidates (elites,
// crossover duplicates, revisited hill-climb neighbors) skip the compile and
// every replay; policy locks, rewrite-trace headers and fleet journals
// persist it, so these bytes must not change.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	ws := func(s string) {
		w64(uint64(len(s)))
		h.Write([]byte(s))
	}
	wb := func(b bool) {
		if b {
			w64(1)
		} else {
			w64(0)
		}
	}

	w64(uint64(len(c.Passes)))
	for _, p := range c.Passes {
		ws(p.Name)
		w64(uint64(len(p.Params)))
		keys := make([]string, 0, len(p.Params))
		for k := range p.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ws(k)
			w64(uint64(int64(p.Params[k])))
		}
	}

	wb(c.Lower.FusedAddressing)
	wb(c.Lower.Machine.FuseLiterals)
	wb(c.Lower.Machine.FuseMaddInt)
	wb(c.Lower.Machine.FuseMaddFloat)
	wb(c.Lower.Machine.Schedule)
	wb(c.Lower.Machine.BlockAlign)
	w64(uint64(int64(c.Lower.Machine.NumRegs)))
	return h.Sum64()
}
