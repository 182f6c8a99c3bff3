// Package profile implements §3.1: the sample-based profiler, the static
// replayability analysis (I/O, non-determinism, JNI, and exception
// blocklists), Algorithm 1's hot-region detection, and the Fig. 8 runtime
// code breakdown.
package profile

import (
	"replayopt/internal/dex"
	"replayopt/internal/interp"
	"replayopt/internal/sa"
)

// SamplePeriodCycles approximates the paper's 1 ms sampling period at the
// pinned clock (≈2.84M cycles); we sample more often so short tests still
// see enough samples, which only makes the profile finer-grained.
const SamplePeriodCycles = 20_000

// Profile is a sample-based runtime profile.
type Profile struct {
	// Exclusive sample counts per method (innermost frame attribution).
	Exclusive map[dex.MethodID]uint64
	// Native sample counts (time spent inside JNI-analogue code).
	Native map[dex.NativeID]uint64
	// Total is the total number of samples taken.
	Total uint64
}

// NewProfile returns an empty profile; it implements interp.Sampler.
func NewProfile() *Profile {
	return &Profile{Exclusive: map[dex.MethodID]uint64{}, Native: map[dex.NativeID]uint64{}}
}

// Sample implements interp.Sampler.
func (p *Profile) Sample(stack []dex.MethodID, native dex.NativeID) {
	p.Total++
	if native >= 0 {
		p.Native[native]++
		return
	}
	if len(stack) > 0 {
		p.Exclusive[stack[len(stack)-1]]++
	}
}

// Analysis caches the static replayability/compilability classification of
// every method in a program.
type Analysis struct {
	Prog *dex.Program
	// ReplayableLocal: the method body itself is free of blocklisted
	// constructs.
	ReplayableLocal []bool
	// ReplayableDeep: the method and everything it can transitively call.
	ReplayableDeep []bool
	// Compilable mirrors the Android compiler's pathological-case check.
	Compilable []bool
	// Effects is the interprocedural effect analysis backing the verdicts,
	// or nil when the legacy §3.1 boolean blocklist produced them
	// (AnalyzeBlocklist). Consumers use it for witness chains, the precise
	// call graph, and per-region effect summaries.
	Effects *sa.Result
}

// Analyze classifies all methods of prog using the interprocedural effect
// analysis (internal/sa): a method is deep-replayable iff its whole-call-tree
// effect summary over the CHA/RTA call graph carries no hazard bit. Every
// method the boolean blocklist accepts is accepted here too (the effect call
// graph is a subset of the blocklist's and the hazard classification is
// identical); methods the blocklist loses to vtable-slot over-approximation
// are recovered.
func Analyze(prog *dex.Program) *Analysis {
	n := len(prog.Methods)
	a := &Analysis{
		Prog:            prog,
		ReplayableLocal: make([]bool, n),
		ReplayableDeep:  make([]bool, n),
		Compilable:      make([]bool, n),
		Effects:         sa.Analyze(prog),
	}
	for i, m := range prog.Methods {
		a.ReplayableLocal[i] = a.Effects.Local[i].Replayable()
		a.ReplayableDeep[i] = a.Effects.Summary[i].Replayable()
		a.Compilable[i] = !m.Uncompilable
	}
	return a
}

// AnalyzeBlocklist classifies all methods of prog with the paper's literal
// §3.1 boolean blocklist over the conservative Program.Callees graph. It is
// the differential reference the effect analysis is tested against: every
// method it deems deep-replayable, the effect analysis must too.
func AnalyzeBlocklist(prog *dex.Program) *Analysis {
	n := len(prog.Methods)
	a := &Analysis{
		Prog:            prog,
		ReplayableLocal: make([]bool, n),
		ReplayableDeep:  make([]bool, n),
		Compilable:      make([]bool, n),
	}
	for i, m := range prog.Methods {
		a.ReplayableLocal[i] = replayableLocal(prog, m)
		a.Compilable[i] = !m.Uncompilable
	}
	// Deep replayability: a method is deep-replayable iff it is locally
	// replayable and every transitively reachable callee (including
	// overrides at virtual sites) is too. One pass over the SCC
	// condensation in reverse topological order replaces the old quadratic
	// iterate-to-fixpoint: when a component is visited its external callees
	// are final, and within a component every member reaches every other,
	// so one unreplayable member (or callee component) decides them all.
	callees := make([][]dex.MethodID, n)
	for i, m := range prog.Methods {
		callees[i] = prog.Callees(m)
	}
	comp, comps := sa.Condense(n, func(v dex.MethodID) []dex.MethodID { return callees[v] })
	for _, c := range comps {
		ok := true
		for _, m := range c {
			if !a.ReplayableLocal[m] {
				ok = false
				break
			}
			for _, callee := range callees[m] {
				if comp[callee] != comp[m] && !a.ReplayableDeep[callee] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		for _, m := range c {
			a.ReplayableDeep[m] = ok
		}
	}
	return a
}

// replayableLocal applies the §3.1 blocklists: no I/O natives, no
// non-deterministic natives, no JNI beyond the intrinsic-replaceable math
// calls, and no exception-throwing code (stack-layout hazards).
func replayableLocal(prog *dex.Program, m *dex.Method) bool {
	if m.HasThrow {
		return false
	}
	for _, in := range m.Code {
		if in.Op != dex.OpInvokeNative {
			continue
		}
		nt := prog.Natives[in.Sym]
		if nt.IO || nt.NonDet || nt.Intrinsic == dex.IntrinsicNone {
			return false
		}
	}
	return true
}

// Region is the chosen hot region: a root method plus the compilable
// methods reachable from it, which the iterative search recompiles.
type Region struct {
	Root    dex.MethodID
	Methods []dex.MethodID // root first, then reachable compilable callees
	// EstimatedSamples is Algorithm 1's estimateRegionRuntime value.
	EstimatedSamples uint64
}

// reachable returns the managed methods reachable from root (including it),
// over the precise effect call graph when available and the conservative
// Program.Callees graph for an AnalyzeBlocklist analysis.
func reachable(a *Analysis, root dex.MethodID) []dex.MethodID {
	callees := func(id dex.MethodID) []dex.MethodID {
		if a.Effects != nil {
			return a.Effects.Graph.Callees[id]
		}
		return a.Prog.Callees(a.Prog.Methods[id])
	}
	seen := map[dex.MethodID]bool{root: true}
	order := []dex.MethodID{root}
	for i := 0; i < len(order); i++ {
		for _, c := range callees(order[i]) {
			if !seen[c] {
				seen[c] = true
				order = append(order, c)
			}
		}
	}
	return order
}

// HotRegion implements Algorithm 1: rank profiled methods by the cumulative
// exclusive time of their compilable call tree, require the whole tree to be
// replayable, and return the best region.
func HotRegion(prog *dex.Program, a *Analysis, p *Profile) (Region, bool) {
	type cand struct {
		region Region
		score  uint64
	}
	var best *cand
	// Every method is a candidate root: a wrapper with no exclusive samples
	// of its own can still own the hottest compilable call tree.
	for idi := range prog.Methods {
		id := dex.MethodID(idi)
		if !a.ReplayableDeep[id] || !a.Compilable[id] {
			continue // estimateRegionRuntime = -inf
		}
		var methods []dex.MethodID
		var score uint64
		for _, m := range reachable(a, id) {
			if !a.Compilable[m] {
				continue
			}
			methods = append(methods, m)
			score += p.Exclusive[m]
		}
		// Ties (coarse sampling may miss cheap callees) go to the larger
		// compilable region: same measured time, more optimizable code.
		if best == nil || score > best.score ||
			(score == best.score && len(methods) > len(best.region.Methods)) {
			best = &cand{region: Region{Root: id, Methods: methods, EstimatedSamples: score}, score: score}
		}
	}
	if best == nil || best.score == 0 {
		return Region{}, false
	}
	return best.region, true
}

// Category is a Fig. 8 runtime code class.
type Category uint8

// Fig. 8 categories.
const (
	CatCompiled Category = iota
	CatCold
	CatJNI
	CatUnreplayable
	CatUncompilable
	numCategories
)

func (c Category) String() string {
	return [...]string{"Compiled", "Cold", "JNI", "Unreplayable", "Uncompilable"}[c]
}

// Breakdown is the Fig. 8 runtime distribution, in fractions of samples.
type Breakdown [numCategories]float64

// Classify produces the Fig. 8 breakdown of a profile given the chosen hot
// region.
func Classify(prog *dex.Program, a *Analysis, p *Profile, region Region) Breakdown {
	inRegion := map[dex.MethodID]bool{}
	for _, m := range region.Methods {
		inRegion[m] = true
	}
	var counts [numCategories]uint64
	for _, n := range p.Native {
		counts[CatJNI] += n
	}
	for id, n := range p.Exclusive {
		switch {
		case inRegion[id]:
			counts[CatCompiled] += n
		case !a.Compilable[id]:
			counts[CatUncompilable] += n
		case !a.ReplayableDeep[id]:
			counts[CatUnreplayable] += n
		default:
			counts[CatCold] += n
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	var out Breakdown
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

var _ interp.Sampler = (*Profile)(nil)
