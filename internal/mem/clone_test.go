package mem

import (
	"sync"
	"testing"
)

// buildTemplate maps a small multi-region space with recognizable contents
// and seals it.
func buildTemplate(t *testing.T) *AddressSpace {
	t.Helper()
	s := NewAddressSpace()
	s.Map(0x10000, 4*PageSize, ProtRW, "data")
	s.Map(0x50000, 2*PageSize, ProtRead, "ro")
	s.Map(0x90000, PageSize, ProtRW, "[heap]")
	for i := 0; i < 4; i++ {
		if err := s.WriteU64(Addr(0x10000+i*PageSize), uint64(0xA0+i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Seal()
	return s
}

func TestCloneSharesTemplateContents(t *testing.T) {
	tmpl := buildTemplate(t)
	c := tmpl.Clone()
	if !c.IsClone() {
		t.Fatal("IsClone() = false")
	}
	for i := 0; i < 4; i++ {
		v, err := c.ReadU64(Addr(0x10000 + i*PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(0xA0+i) {
			t.Fatalf("clone page %d holds %#x, want %#x", i, v, 0xA0+i)
		}
	}
	if got, want := c.PageCount(), tmpl.PageCount(); got != want {
		t.Fatalf("clone PageCount = %d, want %d", got, want)
	}
	if got, want := len(c.Regions()), len(tmpl.Regions()); got != want {
		t.Fatalf("clone has %d regions, want %d", got, want)
	}
}

func TestCloneWriteDoesNotTouchTemplate(t *testing.T) {
	tmpl := buildTemplate(t)
	c := tmpl.Clone()
	if err := c.WriteU64(0x10000, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.ReadU64(0x10000); v != 0xDEAD {
		t.Fatalf("clone read %#x after write, want 0xDEAD", v)
	}
	if v, _ := tmpl.ReadU64(0x10000); v != 0xA0 {
		t.Fatalf("template mutated: %#x, want 0xA0", v)
	}
	// A second clone must still see the template value.
	c2 := tmpl.Clone()
	if v, _ := c2.ReadU64(0x10000); v != 0xA0 {
		t.Fatalf("sibling clone sees %#x, want 0xA0", v)
	}
}

func TestCloneResetRestoresTemplateState(t *testing.T) {
	tmpl := buildTemplate(t)
	refsBefore := frameRefs(tmpl)
	c := tmpl.Clone()
	for i := 0; i < 4; i++ {
		if err := c.WriteU64(Addr(0x10000+i*PageSize), 0xBEEF); err != nil {
			t.Fatal(err)
		}
	}
	// Heap growth on the clone, like rt.growHeap during a replay.
	c.Map(0x90000+PageSize, PageSize, ProtRW, "[heap]")
	if err := c.WriteU64(0x90000+PageSize, 7); err != nil {
		t.Fatal(err)
	}
	// Protection change materializes an overlay mapping sharing the frame.
	if err := c.Protect(0x50000, ProtRW); err != nil {
		t.Fatal(err)
	}

	c.Reset()

	for i := 0; i < 4; i++ {
		v, err := c.ReadU64(Addr(0x10000 + i*PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(0xA0+i) {
			t.Fatalf("after Reset page %d holds %#x, want %#x", i, v, 0xA0+i)
		}
	}
	if c.Mapped(0x90000 + PageSize) {
		t.Fatal("clone-grown heap page survived Reset")
	}
	if p, _ := c.ProtOf(0x50000); p != ProtRead {
		t.Fatalf("Protect survived Reset: %s", p)
	}
	if got, want := len(c.Regions()), len(tmpl.Regions()); got != want {
		t.Fatalf("after Reset clone has %d regions, want %d", got, want)
	}
	// Every frame reference the clone took must be released.
	if got := frameRefs(tmpl); got != refsBefore {
		t.Fatalf("template frame refs drifted: %d, want %d", got, refsBefore)
	}
}

// Reset keeps the frames only the clone mapped, and the next run's
// Copy-on-Write copies reuse them; a frame that a template, a Frame or the
// zero page still holds is never reused.
func TestResetReusesOnlyUnsharedFrames(t *testing.T) {
	tmpl := buildTemplate(t)
	shared := NewFrame([]byte{0x5A})
	c := tmpl.Clone()
	c.MapFrames(Region{Start: 0xd0000, End: 0xd0000 + PageSize, Prot: ProtRW, Name: "frames"}, []*Frame{shared})
	c.Map(0xe0000, PageSize, ProtRead, "zero")
	if err := c.Protect(0x50000, ProtRW); err != nil { // shares the template's frame
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.WriteU64(Addr(0x10000+i*PageSize), 0xBEEF); err != nil {
			t.Fatal(err)
		}
	}
	private := map[*page]bool{}
	for _, m := range c.pages {
		if m.frame.refs.Load() == 1 {
			private[m.frame] = true
		}
	}
	if len(private) != 4 {
		t.Fatalf("%d private frames before Reset, want the 4 copies", len(private))
	}
	c.Reset()
	if len(c.free) != len(private) {
		t.Fatalf("Reset freed %d frames, want %d", len(c.free), len(private))
	}
	for _, m := range c.free {
		if !private[m.frame] {
			t.Fatal("Reset freed a frame another space still maps")
		}
	}
	// The next run: a first write to a template page, and a write to a
	// materialized page that shares the template's frame.
	if err := c.WriteU64(0x10000+8, 0xF00D); err != nil {
		t.Fatal(err)
	}
	if err := c.Protect(0x50000, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteU64(0x50000, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	for _, pa := range []Addr{0x10000, 0x50000} {
		if !private[c.pages[pa].frame] || c.pages[pa].frame.refs.Load() != 1 {
			t.Errorf("the copy of %#x is not a reused private frame", uint64(pa))
		}
	}
	if len(c.free) != 2 {
		t.Errorf("%d frames left free, want 2", len(c.free))
	}
	for _, w := range []struct {
		s    *AddressSpace
		a    Addr
		want uint64
	}{{c, 0x10000, 0xA0}, {c, 0x10000 + 8, 0xF00D}, {c, 0x50000, 0xCAFE}, {tmpl, 0x10000, 0xA0}, {tmpl, 0x10000 + 8, 0}, {tmpl, 0x50000, 0}} {
		if v, err := w.s.ReadU64(w.a); err != nil || v != w.want {
			t.Errorf("%#x reads %#x (%v), want %#x", uint64(w.a), v, err, w.want)
		}
	}
	if shared.p.data[0] != 0x5A || shared.p.refs.Load() != 1 || zeroPage.data != [PageSize]byte{} {
		t.Error("a shared frame was written or released")
	}
}

// frameRefs sums the template's frame reference counts.
func frameRefs(s *AddressSpace) int64 {
	var n int64
	for _, m := range s.pages {
		n += m.frame.refs.Load()
	}
	return n
}

func TestCloneUnmapOwnRegionOnly(t *testing.T) {
	tmpl := buildTemplate(t)
	c := tmpl.Clone()
	r := c.Map(0xF0000, PageSize, ProtRW, "scratch")
	c.Unmap(r.Start) // fine: the clone mapped it

	defer func() {
		if recover() == nil {
			t.Fatal("Unmap of a template region from a clone did not panic")
		}
	}()
	c.Unmap(0x10000)
}

func TestSealedSpaceRejectsMutation(t *testing.T) {
	tmpl := buildTemplate(t)
	defer func() {
		if recover() == nil {
			t.Fatal("write to a sealed template did not panic")
		}
	}()
	_ = tmpl.WriteU64(0x10000, 1)
}

func TestCloneOfUnsealedPanics(t *testing.T) {
	s := NewAddressSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of an unsealed space did not panic")
		}
	}()
	s.Clone()
}

// TestConcurrentClonesAreIndependent drives many clones of one template from
// separate goroutines (run under -race in CI): writers must never see each
// other, and the template must stay pristine.
func TestConcurrentClonesAreIndependent(t *testing.T) {
	tmpl := buildTemplate(t)
	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := tmpl.Clone()
			for r := 0; r < rounds; r++ {
				for i := 0; i < 4; i++ {
					a := Addr(0x10000 + i*PageSize)
					if err := c.WriteU64(a, uint64(w)<<32|uint64(r)); err != nil {
						errs <- err
						return
					}
					v, err := c.ReadU64(a)
					if err != nil {
						errs <- err
						return
					}
					if v != uint64(w)<<32|uint64(r) {
						t.Errorf("worker %d round %d read %#x", w, r, v)
						return
					}
				}
				c.Reset()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if v, _ := tmpl.ReadU64(Addr(0x10000 + i*PageSize)); v != uint64(0xA0+i) {
			t.Fatalf("template page %d corrupted: %#x", i, v)
		}
	}
}
