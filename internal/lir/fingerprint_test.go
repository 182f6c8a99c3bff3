package lir

import "testing"

// TestFingerprintHashesExplicitParams pins what Fingerprint's doc comment
// says: parameters count as written, so spelling out a default or adding a
// padding key changes the fingerprint.
func TestFingerprintHashesExplicitParams(t *testing.T) {
	fp := func(params map[string]int) uint64 {
		return Config{Passes: []PassSpec{{Name: "unroll", Params: params}}}.Fingerprint()
	}
	bare := fp(nil)
	if bare != fp(map[string]int{}) {
		t.Error("nil and empty parameter maps fingerprint differently")
	}
	if bare == fp(map[string]int{"factor": 4}) {
		t.Error("{unroll} and {unroll factor=4} fingerprint equal")
	}
	if bare == fp(map[string]int{"": 1}) {
		t.Error("a padding key does not change the fingerprint")
	}
}
