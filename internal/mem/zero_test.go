package mem

import (
	"bytes"
	"testing"
)

// Read-only regions share zeroPage. No write path may reach it: every one
// must copy first, and the copy must not show in any other space.
func TestReadOnlyMapSharesZeroPage(t *testing.T) {
	const base = Addr(0x10000)
	// A lone mapping of zeroPage is shared too: the package's own reference
	// makes it so.
	solo := NewAddressSpace()
	solo.Map(base, PageSize, ProtRead, "ro")
	if err := solo.Protect(base, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := solo.WriteU64(base, 1); err != nil {
		t.Fatal(err)
	}
	if leU64(zeroPage.data[:8]) != 0 {
		t.Fatal("a lone mapping wrote zeroPage in place")
	}
	a := NewAddressSpace()
	a.Map(base, 4*PageSize, ProtRead, "ro")
	b := NewAddressSpace()
	b.Map(base, 4*PageSize, ProtRead, "ro")
	if err := a.WriteU64(base, 1); err == nil {
		t.Fatal("write to a read-only page succeeded")
	}
	if err := a.Protect(base, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteU64(base, 7); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteAt([]byte{9}, base+PageSize); err == nil {
		t.Fatal("byte write to a read-only page succeeded")
	}
	if err := a.SetPageData(base+2*PageSize, []byte{5}); err != nil {
		t.Fatal(err)
	}
	child := b.Fork()
	if err := child.Protect(base+3*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if !child.TryWriteU64(base+3*PageSize, 3) {
		if err := child.WriteU64(base+3*PageSize, 3); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := a.ReadU64(base); v != 7 {
		t.Errorf("written word reads %d, want 7", v)
	}
	if v, _ := a.ReadU64(base + 2*PageSize); v != 5 {
		t.Errorf("SetPageData word reads %d, want 5", v)
	}
	if v, _ := child.ReadU64(base + 3*PageSize); v != 3 {
		t.Errorf("fork's written word reads %d, want 3", v)
	}
	for pa := base; pa < base+4*PageSize; pa += PageSize {
		if v, _ := b.ReadU64(pa); v != 0 {
			t.Errorf("other space reads %d at %#x, want 0", v, uint64(pa))
		}
	}
	if !bytes.Equal(zeroPage.data[:], make([]byte, PageSize)) {
		t.Fatal("zeroPage was written")
	}
	if c := a.Counters().CoWCopies; c != 2 {
		t.Errorf("CoWCopies = %d, want 2 (one per written page)", c)
	}
}
