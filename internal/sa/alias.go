package sa

import (
	"sort"
	"strings"

	"replayopt/internal/dex"
)

// Points-to/alias summary types shared by the intraprocedural engine in
// internal/lir (AnalyzeAlias) and the interprocedural driver in
// internal/sa/pts. The paper's pass-selection search (§3.5, Fig. 6) consumes
// them through the alias-aware memory passes (storeforward, dse, licm,
// stackalloc), which disambiguate the may-alias store/load/call conflicts the
// kind-matching heuristics had to assume. The types live here — not in pts —
// because lir already imports sa and must not import pts.
//
// The location domain is deliberately coarse but caller-visible: a summary
// names *which statics, field slots, and array-element classes* a method (and
// everything it can transitively call) may read or write, never which concrete
// objects. Writes that provably land only in memory the callee itself
// allocated and never leaks are excluded — that exclusion is the analysis's
// precision payoff, and the reason a call to a fresh-buffer helper no longer
// clobbers every available load.

// LocKind classifies an abstract memory location.
type LocKind uint8

// Location kinds.
const (
	// LocGlobal is one static slot (OpStaticLoad/Store's Slot).
	LocGlobal LocKind = iota
	// LocField is one field slot across all objects (field-sensitive,
	// object-insensitive).
	LocField
	// LocElem is the single array-element location class: any element of any
	// array. Slot is always 0.
	LocElem
)

func (k LocKind) String() string { return [...]string{"global", "field", "elem"}[k] }

// MemLoc is one abstract caller-visible location.
type MemLoc struct {
	Kind LocKind
	Slot int64
}

// locLess orders locations (Kind, then Slot) for the sorted-set invariant.
func locLess(a, b MemLoc) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Slot < b.Slot
}

func (l MemLoc) String() string {
	if l.Kind == LocElem {
		return "elem"
	}
	return l.Kind.String() + ":" + itoa(l.Slot)
}

// LocSet is a set of abstract locations, kept sorted and deduplicated. Top
// ("may touch anything") is the lattice top — the summary of natives-free
// fallback paths, unanalyzable methods, and non-converged components.
type LocSet struct {
	Top  bool
	Locs []MemLoc
}

// TopLocs is the unconstrained set.
func TopLocs() LocSet { return LocSet{Top: true} }

// Contains reports membership (everything is in Top).
func (s LocSet) Contains(l MemLoc) bool {
	if s.Top {
		return true
	}
	i := sort.Search(len(s.Locs), func(i int) bool { return !locLess(s.Locs[i], l) })
	return i < len(s.Locs) && s.Locs[i] == l
}

// Add inserts l, reporting whether the set changed.
func (s *LocSet) Add(l MemLoc) bool {
	if s.Top {
		return false
	}
	i := sort.Search(len(s.Locs), func(i int) bool { return !locLess(s.Locs[i], l) })
	if i < len(s.Locs) && s.Locs[i] == l {
		return false
	}
	s.Locs = append(s.Locs, MemLoc{})
	copy(s.Locs[i+1:], s.Locs[i:])
	s.Locs[i] = l
	return true
}

// AddSet joins o into s (bitwise-union analogue), reporting change.
func (s *LocSet) AddSet(o LocSet) bool {
	if s.Top {
		return false
	}
	if o.Top {
		s.Top = true
		s.Locs = nil
		return true
	}
	changed := false
	for _, l := range o.Locs {
		if s.Add(l) {
			changed = true
		}
	}
	return changed
}

// Equal reports set equality.
func (s LocSet) Equal(o LocSet) bool {
	if s.Top != o.Top || len(s.Locs) != len(o.Locs) {
		return false
	}
	for i := range s.Locs {
		if s.Locs[i] != o.Locs[i] {
			return false
		}
	}
	return true
}

// Len reports the element count (0 for Top; check Top first when it matters).
func (s LocSet) Len() int { return len(s.Locs) }

// String renders the set for witnesses and reports.
func (s LocSet) String() string {
	if s.Top {
		return "⊤"
	}
	if len(s.Locs) == 0 {
		return "∅"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range s.Locs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.String())
	}
	b.WriteByte('}')
	return b.String()
}

// ModRefSummary is one method's interprocedural memory contract: the
// caller-visible locations it (and everything it can transitively call over
// the precise call graph) may write (Mod) and may read (Ref).
type ModRefSummary struct {
	Mod LocSet
	Ref LocSet
}

// TopModRef is the unanalyzable-method summary.
func TopModRef() ModRefSummary { return ModRefSummary{Mod: TopLocs(), Ref: TopLocs()} }

// Equal reports summary equality.
func (m ModRefSummary) Equal(o ModRefSummary) bool {
	return m.Mod.Equal(o.Mod) && m.Ref.Equal(o.Ref)
}

// AllocSite identifies one allocation site by its declaring method and
// original bytecode pc — the same (method, pc) keying the frontend stamps on
// call sites, stable across inlining and shared with the interpreter's
// AllocRecorder hook.
type AllocSite struct {
	Method dex.MethodID
	PC     int
}

// siteLess orders allocation sites for deterministic reporting.
func siteLess(a, b AllocSite) bool {
	if a.Method != b.Method {
		return a.Method < b.Method
	}
	return a.PC < b.PC
}

// AliasSummaries is the program-wide points-to/mod-ref result internal/sa/pts
// attaches to Result.Alias. Everything is a pure function of the program:
// attaching it never perturbs lir.Config fingerprints or GA search traces.
type AliasSummaries struct {
	// ModRef[m] is method m's caller-visible mod/ref contract.
	ModRef []ModRefSummary
	// ParamEscape[m] has bit j set when the referent of m's parameter j may
	// escape through m (stored into reachable memory, returned, thrown, or
	// handed to an escaping callee parameter). Parameters past bit 63 are
	// conservatively escaping.
	ParamEscape []uint64

	// Sites lists every analyzed allocation site, sorted (deterministic
	// reporting); escaping holds the per-site verdict.
	Sites    []AllocSite
	escaping map[AllocSite]bool
}

// NewAliasSummaries allocates the per-method tables for n methods, every
// summary starting at bottom (the optimistic fixpoint seed).
func NewAliasSummaries(n int) *AliasSummaries {
	return &AliasSummaries{
		ModRef:      make([]ModRefSummary, n),
		ParamEscape: make([]uint64, n),
		escaping:    map[AllocSite]bool{},
	}
}

// SetSite records the escape verdict for one allocation site. Sites stays
// sorted; re-recording a site joins the verdict (escaping wins).
func (a *AliasSummaries) SetSite(s AllocSite, escapes bool) {
	if old, ok := a.escaping[s]; ok {
		a.escaping[s] = old || escapes
		return
	}
	a.escaping[s] = escapes
	i := sort.Search(len(a.Sites), func(i int) bool { return !siteLess(a.Sites[i], s) })
	a.Sites = append(a.Sites, AllocSite{})
	copy(a.Sites[i+1:], a.Sites[i:])
	a.Sites[i] = s
}

// SiteEscapes reports whether the allocation site may escape its method.
// Unknown sites (never analyzed) conservatively escape.
func (a *AliasSummaries) SiteEscapes(s AllocSite) bool {
	esc, ok := a.escaping[s]
	return !ok || esc
}

// SiteKnown reports whether the site was analyzed at all.
func (a *AliasSummaries) SiteKnown(s AllocSite) bool {
	_, ok := a.escaping[s]
	return ok
}

// ParamMayEscape reports whether the referent of method m's parameter j may
// escape through m. Out-of-range methods and high parameter indices escape.
func (a *AliasSummaries) ParamMayEscape(m dex.MethodID, j int) bool {
	if int(m) >= len(a.ParamEscape) || j < 0 {
		return true
	}
	if j >= 63 {
		return true
	}
	return a.ParamEscape[m]&(1<<uint(j)) != 0
}
