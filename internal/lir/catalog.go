package lir

import "slices"

// The catalog enumerates the optimization space the GA searches: the 197 opt
// pass configurations the paper reports for its toolchain (§4), plus the llc
// knobs that change generated code. We implement 20 real pass families; the
// catalog exposes them under many parameterizations, which is also how
// LLVM's surface (passes × flags) relates to its core transforms. See
// DESIGN.md §5.

// CatalogEntry is one selectable opt pass configuration.
type CatalogEntry struct {
	ID     int
	Spec   PassSpec
	Unsafe bool
}

// LlcOption is one llc knob: its value range and the lowering option it
// sets, through flag (a 0/1 knob) or num (an integer knob).
type LlcOption struct {
	Name              string
	Min, Max, Default int
	flag              func(*LowerOpts) *bool
	num               func(*LowerOpts) *int
}

// NumOptPassConfigs is the paper's opt pass configuration count (§4).
const NumOptPassConfigs = 197

// OptCatalog returns exactly NumOptPassConfigs pass configurations,
// deterministically generated from the registry: every registered pass at
// its defaults, then parameter sweeps, padded with repeat-position variants
// (the same pass is meaningful at multiple pipeline positions — LLVM's
// pass list has the same character).
func OptCatalog() []CatalogEntry {
	var out []CatalogEntry
	add := func(spec PassSpec, unsafe bool) {
		out = append(out, CatalogEntry{ID: len(out), Spec: spec, Unsafe: unsafe})
	}
	names := PassNames()
	// 1. Defaults.
	for _, n := range names {
		info := registry[n]
		add(PassSpec{Name: n}, info.Unsafe)
	}
	// 2. Single-parameter sweeps.
	sweeps := map[string][]int{
		"factor":          {2, 3, 4, 6, 8, 12, 16},
		"count":           {1, 2, 3, 4},
		"threshold":       {8, 16, 24, 40, 64, 100, 150, 250, 400, 1000, 2000},
		"rounds":          {1, 2, 3, 4},
		"min-share":       {50, 60, 70, 80, 90, 95, 100},
		"loads":           {1},
		"unsafe":          {1},
		"aggressive":      {1},
		"alias-blind":     {1},
		"fast":            {1},
		"div-to-shr":      {1},
		"divs":            {0},
		"rem":             {0},
		"no-remainder":    {1},
		"nofallback":      {1},
		"innermost-only":  {0},
		"const-trip-only": {1},
	}
	for _, n := range names {
		info := registry[n]
		for _, ps := range info.Params {
			for _, v := range sweeps[ps.Name] {
				if v == ps.Default {
					continue
				}
				add(PassSpec{Name: n, Params: map[string]int{ps.Name: v}},
					info.Unsafe || (ps.Unsafe && v != ps.Default))
			}
		}
	}
	// 3. Two-parameter combinations for the loop passes.
	for _, fct := range []int{2, 4, 8} {
		add(PassSpec{Name: "unroll", Params: map[string]int{"factor": fct, "innermost-only": 0}}, false)
		add(PassSpec{Name: "unroll", Params: map[string]int{"factor": fct, "const-trip-only": 1}}, false)
		add(PassSpec{Name: "unroll", Params: map[string]int{"factor": fct, "no-remainder": 1}}, true)
	}
	for _, th := range []int{40, 100, 250} {
		add(PassSpec{Name: "inline", Params: map[string]int{"threshold": th, "rounds": 2}}, false)
		add(PassSpec{Name: "inline", Params: map[string]int{"threshold": th, "rounds": 4}}, false)
	}
	for _, ms := range []int{70, 90} {
		add(PassSpec{Name: "devirt", Params: map[string]int{"min-share": ms, "nofallback": 1}}, true)
	}
	// 4. Pad with positional repeats of the cleanup passes (running them at
	// a later pipeline position is a distinct configuration).
	cleanups := []string{"dce", "gvn", "simplifycfg", "constfold", "instcombine",
		"phisimplify", "sink", "storeforward", "licm", "bce", "gccheckelim",
		"reassoc", "dse", "intrinsics", "peel", "unroll", "inline", "devirt", "vectorize",
		"rangecheckelim", "rangebranch", "rangestrength"}
	for i := 0; len(out) < NumOptPassConfigs; i++ {
		n := cleanups[i%len(cleanups)]
		add(PassSpec{Name: n, Params: map[string]int{"": i/len(cleanups) + 1}}, registry[n].Unsafe)
	}
	out = out[:NumOptPassConfigs]
	for i := range out {
		out[i].ID = i
	}
	return out
}

// llcOptions is the llc space: the seven knobs lowering reads, each with its
// value range and the LowerOpts field it sets. The GA draws a knob by its
// index here, so the order and ranges are part of every recorded search.
// Config.Fingerprint and ga.GenomeFromConfig write these fields in their own
// orders, which locks, fleet journals and decision traces persist: a new
// knob is one row here plus one line in Fingerprint.
var llcOptions = []LlcOption{
	{Name: "fuse-literals", Max: 1, flag: func(lo *LowerOpts) *bool { return &lo.Machine.FuseLiterals }},
	{Name: "fuse-madd-int", Max: 1, flag: func(lo *LowerOpts) *bool { return &lo.Machine.FuseMaddInt }},
	// Single-rounding FMA: fp-contract, so usually rejected by verification.
	{Name: "fuse-madd-float", Max: 1, flag: func(lo *LowerOpts) *bool { return &lo.Machine.FuseMaddFloat }},
	{Name: "fused-addressing", Max: 1, flag: func(lo *LowerOpts) *bool { return &lo.FusedAddressing }},
	{Name: "list-schedule", Max: 1, flag: func(lo *LowerOpts) *bool { return &lo.Machine.Schedule }},
	// Below 8 registers the allocator errors out.
	{Name: "num-regs", Min: 8, Max: 26, Default: 26, num: func(lo *LowerOpts) *int { return &lo.Machine.NumRegs }},
	{Name: "block-align", Max: 1, flag: func(lo *LowerOpts) *bool { return &lo.Machine.BlockAlign }},
}

// LlcCatalog returns the llc option space, in draw order.
func LlcCatalog() []LlcOption { return slices.Clone(llcOptions) }

// LlcByName looks up one llc option.
func LlcByName(name string) (LlcOption, bool) {
	for _, o := range llcOptions {
		if o.Name == name {
			return o, true
		}
	}
	return LlcOption{}, false
}

// ApplyLlc folds a set of llc option values into lowering options; an
// option absent from values takes its default, and unknown names are
// ignored.
func ApplyLlc(values map[string]int) LowerOpts {
	var lo LowerOpts
	for _, o := range llcOptions {
		v, ok := values[o.Name]
		if !ok {
			v = o.Default
		}
		if o.flag != nil {
			*o.flag(&lo) = v == 1 // a flag is on only at 1
		} else {
			*o.num(&lo) = v
		}
	}
	return lo
}

// LlcFromLower inverts ApplyLlc into the canonical minimal option map: an
// option appears only when it deviates from its default. Round-trip holds in
// both directions — ApplyLlc(LlcFromLower(lo)) == lo for any lo, and
// LlcFromLower(ApplyLlc(m)) == m for canonical m — which is what lets a
// rewrite-trace header or policy lock persist a winning lowering as portable
// option values.
func LlcFromLower(lo LowerOpts) map[string]int {
	out := map[string]int{}
	for _, o := range llcOptions {
		v := 0
		if o.flag == nil {
			v = *o.num(&lo)
		} else if *o.flag(&lo) {
			v = 1
		}
		if v != o.Default {
			out[o.Name] = v
		}
	}
	return out
}

// SafeOptCatalog filters the catalog to entries whose defaults cannot
// miscompile (used by tests and the "safe search" ablation).
func SafeOptCatalog() []CatalogEntry {
	var out []CatalogEntry
	for _, e := range OptCatalog() {
		if !e.Unsafe {
			out = append(out, e)
		}
	}
	return out
}
