// Package mem implements the simulated virtual-memory subsystem the capture
// and replay mechanisms are built on: fixed-size pages with independent
// protection bits, fault handlers, region maps (the /proc/self/maps
// analogue), and a refcounted Copy-on-Write fork.
//
// The interpreter and the machine-code executor perform every heap, static,
// and runtime access through an AddressSpace, so page protection observes
// exactly the set of pages a code region touches — the property the paper's
// online capture (§3.2) exploits.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
)

// PageSize is the size of a virtual page in bytes. 4 KiB, as on the paper's
// target hardware.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a virtual address.
type Addr uint64

// PageBase returns the page-aligned base of a.
func (a Addr) PageBase() Addr { return a &^ (PageSize - 1) }

// PageOffset returns the offset of a within its page.
func (a Addr) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

// Prot is a page protection bitmask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// Common protection combinations.
const (
	ProtNone Prot = 0
	ProtRW        = ProtRead | ProtWrite
	ProtRX        = ProtRead | ProtExec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// page is a physical page frame. Frames are shared between forked address
// spaces until a write forces a copy (Copy-on-Write). The refcount is
// atomic because sealed snapshot frames back many replay address spaces at
// once, each running on its own goroutine: a shared frame (refs > 1) is
// never written in place — writers duplicate it first — so the count is the
// only cross-space state that needs synchronization.
type page struct {
	data [PageSize]byte
	refs atomic.Int64 // number of address spaces mapping this frame
}

// newPage returns a fresh private page with one reference.
func newPage() *page {
	p := &page{}
	p.refs.Store(1)
	return p
}

// zeroPage backs every page Map creates without write permission. The
// package holds one reference that it never drops, so every mapping of it is
// shared (refs > 1) and the first write, after a Protect, copies it like any
// other shared frame.
var zeroPage = newPage()

// mapping is one page-table entry: a frame plus per-space protection.
type mapping struct {
	frame *page
	prot  Prot
}

// Region describes a contiguous range of the address space, mirroring one
// line of /proc/self/maps.
type Region struct {
	Start Addr   // inclusive, page aligned
	End   Addr   // exclusive, page aligned
	Prot  Prot   // protection the region was mapped with
	Name  string // e.g. "[heap]", "[stack]", "runtime.art", "app.oat"
	// FileBacked regions hold immutable, system-wide content (mapped
	// system files); the capture mechanism logs them by name instead of
	// storing their pages (§3.2).
	FileBacked bool
	// RuntimeAux regions cannot be read-protected without crashing the
	// process (runtime internals, GC auxiliary structures); capture always
	// stores them (§3.2).
	RuntimeAux bool
	// BootCommon regions hold runtime-immutable objects identical across
	// every process created during the same device boot; capture stores
	// them once per boot (§3.2, Fig. 11 "Common").
	BootCommon bool
}

// Size returns the region length in bytes.
func (r Region) Size() uint64 { return uint64(r.End - r.Start) }

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Start && a < r.End }

func (r Region) String() string {
	return fmt.Sprintf("%012x-%012x %s %s", uint64(r.Start), uint64(r.End), r.Prot, r.Name)
}

// FaultKind distinguishes the access that triggered a fault.
type FaultKind uint8

// Fault kinds.
const (
	FaultRead FaultKind = iota
	FaultWrite
	FaultExec
)

// FaultHandler is invoked when an access violates a page's protection.
// Returning true means the handler resolved the fault (typically by changing
// protections) and the access must be retried; returning false turns the
// fault into an AccessError.
type FaultHandler func(space *AddressSpace, addr Addr, kind FaultKind) bool

// AccessError reports an unresolved protection violation or an access to an
// unmapped address.
type AccessError struct {
	Addr   Addr
	Kind   FaultKind
	Mapped bool
}

func (e *AccessError) Error() string {
	what := [...]string{"read", "write", "exec"}[e.Kind]
	if !e.Mapped {
		return fmt.Sprintf("mem: %s fault at %#x: address not mapped", what, uint64(e.Addr))
	}
	return fmt.Sprintf("mem: %s fault at %#x: protection violation", what, uint64(e.Addr))
}

// Counters aggregates the events the device overhead model charges for.
type Counters struct {
	ReadFaults  uint64 // read-protection faults taken
	WriteFaults uint64
	CoWCopies   uint64 // frames duplicated by Copy-on-Write
	PagesMapped uint64
}

// AddressSpace is one process's page table plus its region map.
//
// A space can additionally serve as a *template*: after Seal it becomes
// immutable and Clone produces lightweight copies that share its page table.
// A clone resolves pages through an overlay — its own map holds only the
// pages it has written (or mapped) itself; everything else falls through to
// the sealed base. That makes Clone O(regions) and Reset O(dirty pages),
// which is what lets the replay loader restore a snapshot once and reuse it
// for every run (§3.3 amortized).
type AddressSpace struct {
	pages    map[Addr]*mapping
	regions  []Region
	handler  FaultHandler
	counters Counters

	// tlb is a small direct-mapped cache over lookup: executor inner loops
	// resolve every load and store through the page table, and for clones
	// each miss costs two map probes (overlay, then base). Entries are
	// per-space and only written while the space is unsealed, so sealed
	// templates stay safe to read from many goroutines.
	tlb [tlbSize]tlbEntry
	// tlbMisses counts translations the cache could not answer on this
	// unsealed space (tests read it; sealed spaces never count, so shared
	// templates stay read-only).
	tlbMisses uint64

	// base, when non-nil, is the sealed template this space is a clone of;
	// pages missing from the overlay resolve against it.
	base *AddressSpace
	// sealed marks a template: every mutation panics. Sealed spaces are read
	// concurrently by clones on many goroutines, which is safe exactly
	// because nothing may write them.
	sealed bool

	// free holds the overlay mappings Reset dropped whose frame no space
	// maps any more (its count fell to zero): copyFrame reuses the frame,
	// and writableFrame the mapping too, for the next run's Copy-on-Write
	// copies instead of allocating. A frame that is still shared never
	// gets here.
	free []*mapping
}

// tlbSize is the number of direct-mapped translation-cache entries: one per
// value of tlbIndex's uint8, so indexing needs no bounds check. The entries
// hold up to 1 MiB of pages, but only pages in distinct slots can be cached
// together.
const tlbSize = 256

// tlbIndex returns the translation-cache slot of the page holding a: the
// page number plus the page number shifted right by 19, mod 256. The runtime
// places each segment (boot image, code, GC-aux, statics, heap) at a
// multiple of 2^36, so by its low bits alone the first page of every
// segment would share slot 0, and the GC-aux word read at every safepoint,
// the first heap arrays and the statics would evict each other on nearly
// every access. With the fold, segment k starts at slot 32k, and the heap's
// first 192 pages miss the first 32 pages of GC-aux and of the statics. One
// shift and one add more than the plain index, so TryReadU64 and
// TryWriteU64 stay inlinable.
func tlbIndex(a Addr) uint8 {
	return uint8(a>>PageShift + a>>(PageShift+19))
}

type tlbEntry struct {
	pa Addr
	m  *mapping
	// own is m when the mapping lives in this space's own table (so a
	// store may write through it), nil when it is a template's. One nil
	// check instead of m plus an owned flag keeps TryWriteU64 within the
	// inliner's budget.
	own *mapping
}

// entry returns a cache entry for pa's translation.
func entry(pa Addr, m *mapping, owned bool) tlbEntry {
	e := tlbEntry{pa: pa, m: m}
	if owned {
		e.own = m
	}
	return e
}

// tlbFlush drops every cached translation (after Unmap or Reset, where
// mappings disappear wholesale).
func (s *AddressSpace) tlbFlush() {
	s.tlb = [tlbSize]tlbEntry{}
}

// tlbPut records pa's translation, replacing any entry that shadowed it
// (materializing an overlay page changes which mapping owns pa).
func (s *AddressSpace) tlbPut(pa Addr, m *mapping, owned bool) {
	s.tlb[tlbIndex(pa)] = entry(pa, m, owned)
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[Addr]*mapping)}
}

// SetFaultHandler installs h as the space's fault handler; nil uninstalls.
func (s *AddressSpace) SetFaultHandler(h FaultHandler) { s.handler = h }

// Seal freezes the space as a template: every later mutation panics, and
// Clone becomes legal. Sealing is irreversible.
func (s *AddressSpace) Seal() {
	if s.base != nil {
		panic("mem: Seal of a clone")
	}
	s.sealed = true
	// Drop cached translations: the U64 fast paths trust TLB entries without
	// re-checking sealedness, so a sealed space must present an empty cache
	// (and lookup never refills it once sealed).
	s.tlbFlush()
}

// mutable panics if the space is sealed; every mutating entry point calls it.
func (s *AddressSpace) mutable(op string) {
	if s.sealed {
		panic("mem: " + op + " of a sealed template space")
	}
}

// Clone returns a new space backed by this sealed template. The clone starts
// with an empty overlay page table and a copy of the region map, so the call
// is O(regions), not O(pages): reads resolve through the template's frames,
// and the first write to any template page materializes a private overlay
// copy (Copy-on-Write). The template itself is never modified.
func (s *AddressSpace) Clone() *AddressSpace {
	if !s.sealed {
		panic("mem: Clone of an unsealed space (Seal it first)")
	}
	c := NewAddressSpace()
	c.base = s
	c.regions = make([]Region, len(s.regions), len(s.regions)+4)
	copy(c.regions, s.regions)
	return c
}

// Reset returns a clone to its template's state: every overlay page is
// dropped (releasing its frame reference) and the region map is restored
// from the template. Cost is O(dirty pages + regions) — the §3.3 restore
// collapses to this between replay runs.
func (s *AddressSpace) Reset() {
	if s.base == nil {
		panic("mem: Reset of a non-clone")
	}
	for _, m := range s.pages {
		if m.frame.refs.Add(-1) == 0 {
			s.free = append(s.free, m)
		}
	}
	clear(s.pages)
	s.tlbFlush()
	s.regions = append(s.regions[:0], s.base.regions...)
	s.counters = Counters{}
}

// IsClone reports whether the space is a template clone.
func (s *AddressSpace) IsClone() bool { return s.base != nil }

// lookup resolves the mapping for page pa, falling through to the template
// for clones. owned reports whether the mapping lives in s's own table (and
// may therefore be mutated). Hits in the translation cache skip the map
// probes entirely; the cache is only filled while the space is unsealed, so
// lookups against a sealed template never write shared state.
func (s *AddressSpace) lookup(pa Addr) (m *mapping, owned bool) {
	e := &s.tlb[tlbIndex(pa)]
	if e.m != nil && e.pa == pa {
		return e.m, e.own != nil
	}
	m, owned = s.lookupSlow(pa)
	if !s.sealed {
		s.tlbMisses++
		if m != nil {
			*e = entry(pa, m, owned)
		}
	}
	return m, owned
}

func (s *AddressSpace) lookupSlow(pa Addr) (m *mapping, owned bool) {
	if m, ok := s.pages[pa]; ok {
		return m, true
	}
	if s.base != nil {
		if m, ok := s.base.pages[pa]; ok {
			return m, false
		}
	}
	return nil, false
}

// materialize installs an overlay mapping for template page pa in a clone,
// sharing the template's frame (the frame gains a reference; a later write
// still Copy-on-Writes it). Returns the overlay mapping.
func (s *AddressSpace) materialize(pa Addr, tm *mapping) *mapping {
	tm.frame.refs.Add(1)
	m := &mapping{frame: tm.frame, prot: tm.prot}
	s.pages[pa] = m
	s.tlbPut(pa, m, true)
	return m
}

// Counters returns a snapshot of the space's event counters.
func (s *AddressSpace) Counters() Counters { return s.counters }

// ResetCounters zeroes the event counters.
func (s *AddressSpace) ResetCounters() { s.counters = Counters{} }

// Map creates a region of n bytes (rounded up to whole pages) at base with
// the given protection. Its pages read as zero: a writable region gets fresh
// zeroed frames, and a region mapped without ProtWrite (the boot image, the
// code segment) shares zeroPage, so mapping it allocates no frames.
func (s *AddressSpace) Map(base Addr, n uint64, prot Prot, name string) Region {
	s.mutable("Map")
	if base.PageOffset() != 0 {
		panic(fmt.Sprintf("mem: unaligned Map base %#x", uint64(base)))
	}
	npages := (n + PageSize - 1) / PageSize
	ms := make([]mapping, npages) // one allocation for the region's entries
	for i := range ms {
		pa := base + Addr(uint64(i)*PageSize)
		if m, _ := s.lookup(pa); m != nil {
			panic(fmt.Sprintf("mem: Map overlaps existing page at %#x", uint64(pa)))
		}
		ms[i] = mapping{frame: zeroPage, prot: prot}
		if prot&ProtWrite != 0 {
			ms[i].frame = newPage()
		} else {
			zeroPage.refs.Add(1)
		}
		s.pages[pa] = &ms[i]
		s.counters.PagesMapped++
	}
	r := Region{Start: base, End: base + Addr(npages*PageSize), Prot: prot, Name: name}
	s.regions = append(s.regions, r)
	sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Start < s.regions[j].Start })
	return r
}

// MapRegion is Map with full region metadata control.
func (s *AddressSpace) MapRegion(r Region) Region {
	got := s.Map(r.Start, r.Size(), r.Prot, r.Name)
	for i := range s.regions {
		if s.regions[i].Start == got.Start {
			s.regions[i].FileBacked = r.FileBacked
			s.regions[i].RuntimeAux = r.RuntimeAux
			s.regions[i].BootCommon = r.BootCommon
			return s.regions[i]
		}
	}
	return got
}

// Unmap removes every page of the region starting at base. It is the inverse
// of Map; unmapping an address that is not a region start panics.
func (s *AddressSpace) Unmap(base Addr) {
	s.mutable("Unmap")
	if s.base != nil {
		// A clone may only unmap regions it mapped itself (heap growth); the
		// template's regions must stay resolvable for every other clone and
		// for the next Reset.
		for _, br := range s.base.regions {
			if br.Start == base {
				panic(fmt.Sprintf("mem: Unmap of template region %#x from a clone", uint64(base)))
			}
		}
	}
	idx := -1
	for i, r := range s.regions {
		if r.Start == base {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("mem: Unmap of non-region base %#x", uint64(base)))
	}
	r := s.regions[idx]
	for pa := r.Start; pa < r.End; pa += PageSize {
		if m, ok := s.pages[pa]; ok {
			m.frame.refs.Add(-1)
			delete(s.pages, pa)
		}
	}
	s.tlbFlush()
	s.regions = append(s.regions[:idx], s.regions[idx+1:]...)
}

// Regions returns the space's region map in address order — the
// /proc/self/maps analogue the capture mechanism parses (§3.2 step 3).
func (s *AddressSpace) Regions() []Region {
	out := make([]Region, len(s.regions))
	copy(out, s.regions)
	return out
}

// RegionFor returns the region containing a, if any.
func (s *AddressSpace) RegionFor(a Addr) (Region, bool) {
	for _, r := range s.regions {
		if r.Contains(a) {
			return r, true
		}
	}
	return Region{}, false
}

// Mapped reports whether the page containing a is mapped.
func (s *AddressSpace) Mapped(a Addr) bool {
	m, _ := s.lookup(a.PageBase())
	return m != nil
}

// PageCount returns the number of mapped pages.
func (s *AddressSpace) PageCount() int {
	if s.base == nil {
		return len(s.pages)
	}
	n := len(s.base.pages)
	for pa := range s.pages {
		if _, ok := s.base.pages[pa]; !ok {
			n++
		}
	}
	return n
}

// Protect sets the protection of the page containing a. On a clone, a
// template page gains an overlay mapping (sharing the frame) so the
// template's own protection is untouched.
func (s *AddressSpace) Protect(a Addr, prot Prot) error {
	s.mutable("Protect")
	m, owned := s.lookup(a.PageBase())
	if m == nil {
		return &AccessError{Addr: a, Kind: FaultRead, Mapped: false}
	}
	if !owned {
		m = s.materialize(a.PageBase(), m)
	}
	m.prot = prot
	return nil
}

// ProtectRange sets the protection of every page in [start, end).
func (s *AddressSpace) ProtectRange(start, end Addr, prot Prot) error {
	for pa := start.PageBase(); pa < end; pa += PageSize {
		if err := s.Protect(pa, prot); err != nil {
			return err
		}
	}
	return nil
}

// ProtOf returns the current protection of the page containing a.
func (s *AddressSpace) ProtOf(a Addr) (Prot, bool) {
	m, _ := s.lookup(a.PageBase())
	if m == nil {
		return 0, false
	}
	return m.prot, true
}

// resolve returns the mapping for an access, running the fault handler as
// needed. want is the protection bit the access requires. owned reports
// whether the mapping belongs to s itself (false: a template mapping a clone
// is reading through — writers must go via writableFrame, which materializes
// an overlay copy instead of touching the template).
func (s *AddressSpace) resolve(a Addr, kind FaultKind, want Prot) (m *mapping, owned bool, err error) {
	for attempt := 0; ; attempt++ {
		m, owned = s.lookup(a.PageBase())
		if m == nil {
			return nil, false, &AccessError{Addr: a, Kind: kind, Mapped: false}
		}
		if m.prot&want != 0 {
			return m, owned, nil
		}
		switch kind {
		case FaultRead:
			s.counters.ReadFaults++
		case FaultWrite:
			s.counters.WriteFaults++
		}
		if s.handler == nil || attempt > 0 || !s.handler(s, a, kind) {
			return nil, false, &AccessError{Addr: a, Kind: kind, Mapped: true}
		}
	}
}

// writableFrame returns a frame that may be written for the page containing
// a. An unowned (template) mapping first materializes a private overlay copy
// in the clone; a shared owned frame is duplicated (Copy-on-Write). Either
// way the returned frame is exclusively this space's.
func (s *AddressSpace) writableFrame(a Addr, m *mapping, owned bool) *page {
	s.mutable("write")
	if !owned {
		// First write to a template page: copy it into the overlay. The
		// template mapping and its frame are never touched.
		om := s.copyFrame(m.frame)
		om.prot = m.prot
		s.pages[a.PageBase()] = om
		s.tlbPut(a.PageBase(), om, true)
		s.counters.CoWCopies++
		return om.frame
	}
	if m.frame.refs.Load() > 1 {
		dup := s.copyFrame(m.frame).frame
		m.frame.refs.Add(-1)
		m.frame = dup
		s.counters.CoWCopies++
	}
	return m.frame
}

// copyFrame returns a mapping of a private frame holding a copy of src's
// data: one Reset freed, or a new one.
func (s *AddressSpace) copyFrame(src *page) *mapping {
	if n := len(s.free); n > 0 {
		m := s.free[n-1]
		s.free = s.free[:n-1]
		m.frame.refs.Store(1)
		m.frame.data = src.data
		return m
	}
	p := newPage()
	p.data = src.data
	return &mapping{frame: p}
}

// ReadAt copies len(p) bytes starting at a into p, honoring protections. The
// access may span pages.
func (s *AddressSpace) ReadAt(p []byte, a Addr) error {
	for len(p) > 0 {
		m, _, err := s.resolve(a, FaultRead, ProtRead)
		if err != nil {
			return err
		}
		off := a.PageOffset()
		n := copy(p, m.frame.data[off:])
		p = p[n:]
		a += Addr(n)
	}
	return nil
}

// WriteAt copies p into the space starting at a, honoring protections and
// performing Copy-on-Write duplication of shared frames.
func (s *AddressSpace) WriteAt(p []byte, a Addr) error {
	for len(p) > 0 {
		m, owned, err := s.resolve(a, FaultWrite, ProtWrite)
		if err != nil {
			return err
		}
		f := s.writableFrame(a, m, owned)
		off := a.PageOffset()
		n := copy(f.data[off:], p)
		p = p[n:]
		a += Addr(n)
	}
	return nil
}

// TryReadU64 answers an aligned in-page 64-bit read from the translation
// cache alone: ok=false means "no cached readable translation", and the
// caller must take the full ReadU64 path. Small enough for the compiler to
// inline into executor dispatch loops (binary.LittleEndian decodes with a
// single recognized load, unlike the open-coded leU64).
func (s *AddressSpace) TryReadU64(a Addr) (v uint64, ok bool) {
	e := &s.tlb[tlbIndex(a)]
	off := a & (PageSize - 1)
	if e.m == nil || e.pa != a-off || e.m.prot&ProtRead == 0 || off > PageSize-8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(e.m.frame.data[off:]), true
}

// TryWriteU64 is TryReadU64's store twin: it only writes through a cached
// translation that is owned, writable, and exclusively referenced (so no
// Copy-on-Write decision is being skipped); any other case reports ok=false
// and the caller must take the full WriteU64 path.
func (s *AddressSpace) TryWriteU64(a Addr, v uint64) (ok bool) {
	e := &s.tlb[tlbIndex(a)]
	off := a & (PageSize - 1)
	if e.own == nil || e.pa != a-off || e.own.prot&ProtWrite == 0 ||
		off > PageSize-8 || e.own.frame.refs.Load() != 1 {
		return false
	}
	binary.LittleEndian.PutUint64(e.own.frame.data[off:], v)
	return true
}

// ReadU64 reads a little-endian 64-bit word at a. Words are 8-byte aligned
// throughout the runtime, so a word never spans pages.
//
// The TLB hit path is open-coded: executor Load ops funnel through here, and
// a cached readable translation answers without the resolve/lookup call
// chain. Entries are only ever installed on unsealed spaces (and Seal
// flushes), so trusting one cannot bypass the sealed-template write guard.
func (s *AddressSpace) ReadU64(a Addr) (uint64, error) {
	pa := a.PageBase()
	e := &s.tlb[tlbIndex(pa)]
	if e.m != nil && e.pa == pa && e.m.prot&ProtRead != 0 {
		if off := a.PageOffset(); off+8 <= PageSize {
			return leU64(e.m.frame.data[off : off+8]), nil
		}
	}
	m, _, err := s.resolve(a, FaultRead, ProtRead)
	if err != nil {
		return 0, err
	}
	off := a.PageOffset()
	if off+8 > PageSize {
		var buf [8]byte
		if err := s.ReadAt(buf[:], a); err != nil {
			return 0, err
		}
		return leU64(buf[:]), nil
	}
	return leU64(m.frame.data[off : off+8]), nil
}

// WriteU64 writes a little-endian 64-bit word at a.
//
// Like ReadU64, the hot case is open-coded: a cached translation that is
// owned by this space, writable, and exclusively referenced takes no CoW
// decision and skips resolve/writableFrame entirely. Shared or template
// frames (refs > 1, or owned=false) always fall through to the slow path,
// which duplicates before writing.
func (s *AddressSpace) WriteU64(a Addr, v uint64) error {
	pa := a.PageBase()
	e := &s.tlb[tlbIndex(pa)]
	if e.own != nil && e.pa == pa && e.own.prot&ProtWrite != 0 &&
		e.own.frame.refs.Load() == 1 {
		if off := a.PageOffset(); off+8 <= PageSize {
			putLeU64(e.own.frame.data[off:off+8], v)
			return nil
		}
	}
	m, owned, err := s.resolve(a, FaultWrite, ProtWrite)
	if err != nil {
		return err
	}
	f := s.writableFrame(a, m, owned)
	off := a.PageOffset()
	if off+8 > PageSize {
		var buf [8]byte
		putLeU64(buf[:], v)
		return s.WriteAt(buf[:], a)
	}
	putLeU64(f.data[off:off+8], v)
	return nil
}

// PageData returns a copy of the page containing a, bypassing protection
// (the kernel-side view used when spooling captured pages).
func (s *AddressSpace) PageData(a Addr) ([]byte, bool) {
	m, _ := s.lookup(a.PageBase())
	if m == nil {
		return nil, false
	}
	out := make([]byte, PageSize)
	copy(out, m.frame.data[:])
	return out, true
}

// SetPageData overwrites the page containing a, bypassing protection (loader
// use only). The page must be mapped.
func (s *AddressSpace) SetPageData(a Addr, data []byte) error {
	m, owned := s.lookup(a.PageBase())
	if m == nil {
		return &AccessError{Addr: a, Kind: FaultWrite, Mapped: false}
	}
	f := s.writableFrame(a, m, owned)
	copy(f.data[:], data)
	return nil
}

// Frame is a sealed page frame that can back mappings in many address
// spaces at once; writers Copy-on-Write it. Snapshot stores use frames so
// replays load captured pages without copying them.
type Frame struct{ p *page }

// NewFrame seals data (up to PageSize bytes) into a shareable frame. The
// data is copied once, here; every later mapping is zero-copy.
func NewFrame(data []byte) *Frame {
	f := &Frame{p: newPage()}
	copy(f.p.data[:], data)
	return f
}

// MapFrames maps region r backed by the given frames, one per page; nil
// entries get fresh zeroed private pages. Writers trigger Copy-on-Write, so
// the frames themselves are never modified.
func (s *AddressSpace) MapFrames(r Region, frames []*Frame) Region {
	s.mutable("MapFrames")
	if r.Start.PageOffset() != 0 {
		panic(fmt.Sprintf("mem: unaligned MapFrames base %#x", uint64(r.Start)))
	}
	npages := int(r.Size() / PageSize)
	if len(frames) != npages {
		panic(fmt.Sprintf("mem: MapFrames: %d frames for %d pages", len(frames), npages))
	}
	for i := 0; i < npages; i++ {
		pa := r.Start + Addr(i*PageSize)
		if m, _ := s.lookup(pa); m != nil {
			panic(fmt.Sprintf("mem: MapFrames overlaps existing page at %#x", uint64(pa)))
		}
		if frames[i] == nil {
			s.pages[pa] = &mapping{frame: newPage(), prot: r.Prot}
		} else {
			frames[i].p.refs.Add(1)
			s.pages[pa] = &mapping{frame: frames[i].p, prot: r.Prot}
		}
		s.counters.PagesMapped++
	}
	s.regions = append(s.regions, r)
	sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Start < s.regions[j].Start })
	return r
}

// Fork returns a new address space sharing every frame with s via
// Copy-on-Write, duplicating the region map — the §3.2 step-2 fork. The
// child's pages keep their current protections; the child inherits no fault
// handler.
func (s *AddressSpace) Fork() *AddressSpace {
	if s.base != nil {
		// Capture never runs against a replayed process; supporting this
		// would mean flattening the overlay for no caller.
		panic("mem: Fork of a template clone")
	}
	child := NewAddressSpace()
	for pa, m := range s.pages {
		m.frame.refs.Add(1)
		child.pages[pa] = &mapping{frame: m.frame, prot: m.prot}
	}
	child.regions = make([]Region, len(s.regions))
	copy(child.regions, s.regions)
	return child
}

// SharedFrames reports how many of s's pages still share a frame with
// another space (i.e. have not been CoW-duplicated).
func (s *AddressSpace) SharedFrames() int {
	n := 0
	for _, m := range s.pages {
		if m.frame.refs.Load() > 1 {
			n++
		}
	}
	if s.base != nil {
		for pa, m := range s.base.pages {
			if _, ok := s.pages[pa]; ok {
				continue // shadowed by an overlay page
			}
			if m.frame.refs.Load() > 1 {
				n++
			}
		}
	}
	return n
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
