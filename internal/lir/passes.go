package lir

import (
	"fmt"
	"sort"

	"replayopt/internal/dex"
	"replayopt/internal/sa"
)

// CrashError is a compiler crash — one of the Fig. 1 "compiler error"
// outcomes. The GA discards the genome.
type CrashError struct {
	Pass string
	Msg  string
}

func (e *CrashError) Error() string { return fmt.Sprintf("lir: %s crashed: %s", e.Pass, e.Msg) }

// TimeoutError is a compiler timeout (code-size explosion or a pipeline that
// stops converging) — the other Fig. 1 compile-time failure.
type TimeoutError struct {
	Pass string
	Msg  string
}

func (e *TimeoutError) Error() string { return fmt.Sprintf("lir: %s timed out: %s", e.Pass, e.Msg) }

// SiteKey identifies a virtual call site for the type profile (§3.4).
type SiteKey struct {
	Method dex.MethodID
	PC     int
}

// Profile is the interpreted-replay type profile: per call site, the
// frequency histogram of receiver classes.
type Profile struct {
	Virt map[SiteKey]map[dex.ClassID]uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{Virt: map[SiteKey]map[dex.ClassID]uint64{}} }

// Record adds one observed dispatch.
func (p *Profile) Record(site SiteKey, cls dex.ClassID) {
	m := p.Virt[site]
	if m == nil {
		m = map[dex.ClassID]uint64{}
		p.Virt[site] = m
	}
	m[cls]++
}

// Dominant returns the most frequent class at site and its share of all
// dispatches, or ok=false if the site was never observed.
func (p *Profile) Dominant(site SiteKey) (cls dex.ClassID, share float64, ok bool) {
	m := p.Virt[site]
	if len(m) == 0 {
		return 0, 0, false
	}
	var total, best uint64
	bestCls := dex.ClassID(-1)
	// Deterministic tie-break: lowest class id wins.
	ids := make([]int, 0, len(m))
	for c := range m {
		ids = append(ids, int(c))
	}
	sort.Ints(ids)
	for _, c := range ids {
		n := m[dex.ClassID(c)]
		total += n
		if n > best {
			best = n
			bestCls = dex.ClassID(c)
		}
	}
	return bestCls, float64(best) / float64(total), true
}

// RewriteNote is one pass-internal decision record: which sub-rule fired,
// where, and the (bounded) cost-model inputs that drove it. Passes emit
// notes through PassContext.Note; the pipeline drains them into the rewrite
// trace after each pass application. Notes are pure observation — nothing
// reads them back into a compile decision.
type RewriteNote struct {
	// Rule names the decision point within the pass, e.g. "inline.accept".
	Rule string `json:"rule"`
	// Anchor locates the decision, e.g. "b3:v17" or "loop@b5".
	Anchor string `json:"anchor,omitempty"`
	// Detail carries cost-model inputs/outputs as ordered key/value pairs.
	Detail []NoteKV `json:"detail,omitempty"`
}

// NoteKV is one rationale key/value pair (ordered, so traces are stable).
type NoteKV struct {
	K string `json:"k"`
	V int64  `json:"v"`
}

// KV builds a NoteKV (keeps Note call sites short).
func KV(k string, v int64) NoteKV { return NoteKV{K: k, V: v} }

// b2i encodes a boolean note detail (0/1).
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// maxNotesPerPass bounds rationale collection per pass application so
// value-at-a-time passes (constfold, gvn) cannot balloon the trace; overflow
// is counted and reported on the trace entry.
const maxNotesPerPass = 32

// PassContext carries pass inputs and global limits.
type PassContext struct {
	Profile *Profile
	// Static is the interprocedural effect analysis (internal/sa), when the
	// caller ran it: devirt uses its RTA call graph to rewrite
	// single-implementation virtual calls with no class guard, and
	// gccheckelim uses its allocation summaries to drop safepoint checks
	// from allocation-free loops. Nil degrades both passes to their
	// profile-only/conservative behavior.
	Static *sa.Result
	// maxValues caps IR growth; exceeding it is a compiler timeout
	// (runaway unrolling/inlining). 0 means defaultMaxValues; only tests
	// set it.
	maxValues int

	// traceNotes enables Note collection; the pipeline sets it when a
	// RewriteTracer is attached and drains notes after every pass.
	traceNotes   bool
	notes        []RewriteNote
	notesDropped int

	// ssa hands inline its callees' SSA (see ssaCache); the pipeline shares
	// its compile's cache, and a context made without one builds its own on
	// first use.
	ssa *ssaCache
}

// Tracing reports whether decision notes are being collected. Passes guard
// anchor formatting behind it so an untraced compile pays nothing.
func (ctx *PassContext) Tracing() bool { return ctx.traceNotes }

// Note records one decision rationale when tracing is on (bounded per pass
// application; overflow increments the dropped count instead).
func (ctx *PassContext) Note(rule, anchor string, detail ...NoteKV) {
	if !ctx.traceNotes {
		return
	}
	if len(ctx.notes) >= maxNotesPerPass {
		ctx.notesDropped++
		return
	}
	ctx.notes = append(ctx.notes, RewriteNote{Rule: rule, Anchor: anchor, Detail: detail})
}

// NoteAnchor formats the standard "b<block>:v<value>" decision anchor.
// Callers guard the call behind Tracing() so untraced compiles never format.
func NoteAnchor(b *Block, v *Value) string {
	if v == nil {
		return fmt.Sprintf("b%d", b.ID)
	}
	return fmt.Sprintf("b%d:v%d", b.ID, v.ID)
}

// drainNotes hands the collected notes (and overflow count) to the pipeline
// and resets for the next pass application.
func (ctx *PassContext) drainNotes() (notes []RewriteNote, dropped int) {
	notes, dropped = ctx.notes, ctx.notesDropped
	ctx.notes, ctx.notesDropped = nil, 0
	return notes, dropped
}

// buildSSA returns a fresh copy of method id's SSA form.
func (ctx *PassContext) buildSSA(prog *dex.Program, id dex.MethodID) (*Function, error) {
	if ctx.ssa == nil {
		ctx.ssa = newSSACache(prog)
	}
	return ctx.ssa.build(id)
}

// defaultMaxValues is the IR growth cap of every compile.
const defaultMaxValues = 60000

func (ctx *PassContext) cap() int {
	if ctx.maxValues > 0 {
		return ctx.maxValues
	}
	return defaultMaxValues
}

func (ctx *PassContext) checkGrowth(f *Function, pass string) error {
	if f.NumValues() > ctx.cap() {
		return &TimeoutError{Pass: pass, Msg: fmt.Sprintf("IR grew to %d values", f.NumValues())}
	}
	return nil
}

// PassFunc transforms a function in place.
type PassFunc func(f *Function, ctx *PassContext, params map[string]int) error

// ParamSpec describes one tunable pass parameter for the GA.
type ParamSpec struct {
	Name    string
	Default int
	Min     int
	Max     int
	// Unsafe parameters can produce wrong code when enabled/raised; they
	// model the fast-math/aggressive-flag corner of the LLVM space.
	Unsafe bool
}

// PassInfo is one registry entry.
type PassInfo struct {
	Name   string
	Doc    string
	Params []ParamSpec
	Run    PassFunc
	// Unsafe passes can miscompile even at default parameters.
	Unsafe bool
	// CFG declares that the pass may add, remove, merge or reorder basic
	// blocks at some parameter setting. The translation validator
	// (internal/lir/tv) labels a CFG change by a pass that does not declare
	// it as an anomaly.
	CFG bool
}

// registry of all transformation passes, filled by registerPasses.
var registry = map[string]*PassInfo{}

func register(p *PassInfo) { registry[p.Name] = p }

// RegisterForTesting registers an extra pass for the duration of a test and
// returns the cleanup that removes it again. Tests and benchmarks use it to
// drop a deliberately miscompiling pass (tv.MiscompilePass) into the catalog
// for the validator, search and bisection drills; nothing else calls it.
// Registering a pass deterministically shifts OptCatalog's composition, so
// the hook must never be live while a catalog-driven search runs that does
// not expect it.
func RegisterForTesting(p *PassInfo) func() {
	if _, exists := registry[p.Name]; exists {
		panic("lir: RegisterForTesting: pass " + p.Name + " already registered")
	}
	registry[p.Name] = p
	return func() { delete(registry, p.Name) }
}

// PassByName looks up a pass.
func PassByName(name string) (*PassInfo, bool) {
	p, ok := registry[name]
	return p, ok
}

// PassNames returns all registered pass names, sorted.
func PassNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// replaceWithConstInt mutates v into an integer constant in place.
func replaceWithConstInt(v *Value, imm int64) {
	v.Op = OpConstInt
	v.Type = TInt
	v.Args = nil
	v.Imm = imm
}

// replaceWithConstFloat mutates v into a float constant in place.
func replaceWithConstFloat(v *Value, fval float64) {
	v.Op = OpConstFloat
	v.Type = TFloat
	v.Args = nil
	v.F = fval
}

// RunPassForTest runs one registered pass at default (or given) parameters
// and recomputes after it, as the pipeline does — a test hook for verifier
// and differential harnesses.
func RunPassForTest(f *Function, name string, params map[string]int) error {
	info, ok := PassByName(name)
	if !ok {
		return fmt.Errorf("lir: unknown pass %q", name)
	}
	err := info.Run(f, &PassContext{}, resolveParams(info, params))
	f.Recompute()
	return err
}
