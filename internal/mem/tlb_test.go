package mem_test

import (
	"fmt"
	"testing"

	"replayopt/internal/dex"
	"replayopt/internal/mem"
	"replayopt/internal/rt"
)

// Every runtime segment starts at a multiple of 2^36, so a TLB indexed by
// the page number's low bits alone puts all their first pages in one slot.
// The first page of each segment and the heap's first 32 pages must all get
// slots of their own.
func TestTLBSlotsSpreadSegments(t *testing.T) {
	owner := map[int]string{}
	claim := func(a mem.Addr, name string) {
		s := mem.TLBSlot(a)
		if prev, ok := owner[s]; ok {
			t.Errorf("%s and %s share TLB slot %d", prev, name, s)
		}
		owner[s] = name
	}
	claim(rt.BootBase, "boot.art page 0")
	claim(rt.CodeBase, "code page 0")
	claim(rt.GCAuxBase, "gc-aux page 0")
	claim(rt.StaticsBase, "statics page 0")
	for i := 0; i < 32; i++ {
		claim(rt.HeapBase+mem.Addr(i*mem.PageSize), fmt.Sprintf("heap page %d", i))
	}
}

// The executor's hottest runtime accesses — the safepoint's gc-aux read, an
// array header on the heap's first page, a global in the statics — must
// all stay cached together: after one warm-up round, alternating between
// them takes no slow lookup, on a fresh process and on a replay clone.
func TestTLBHoldsHotSegmentPages(t *testing.T) {
	prog := &dex.Program{
		Name:    "t",
		Globals: []dex.Global{{Name: "g", Kind: dex.KindInt}},
		Methods: []*dex.Method{{Name: "main", Class: dex.NoClass, NumRegs: 1,
			Code: []dex.Insn{{Op: dex.OpReturnVoid}}}},
	}
	prog.BuildIndex()
	fresh := rt.NewProcess(prog, rt.Config{})
	arr, err := fresh.NewArray(dex.KindInt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if arr.PageBase() != rt.HeapBase {
		t.Fatalf("array at %#x, not on the heap's first page", uint64(arr))
	}
	template := rt.NewProcess(prog, rt.Config{})
	if _, err := template.NewArray(dex.KindInt, 4); err != nil {
		t.Fatal(err)
	}
	template.Space.Seal()
	clone := rt.Attach(prog, template.Space.Clone(), rt.Config{})

	for _, c := range []struct {
		name string
		p    *rt.Process
	}{{"fresh", fresh}, {"clone", clone}} {
		round := func(i int) {
			c.p.Safepoint()
			if _, err := c.p.ArrayLen(arr); err != nil {
				t.Fatal(err)
			}
			g := c.p.GlobalAddr(0)
			v, err := c.p.Space.ReadU64(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.p.Space.WriteU64(g, v+uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		round(0)
		warm := c.p.Space.TLBMisses()
		for i := 1; i <= 100; i++ {
			round(i)
		}
		if n := c.p.Space.TLBMisses() - warm; n != 0 {
			t.Errorf("%s: %d slow lookups after warm-up", c.name, n)
		}
	}
}
