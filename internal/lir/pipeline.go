package lir

import (
	"fmt"
	"time"

	"replayopt/internal/dex"
	"replayopt/internal/machine"
	"replayopt/internal/obs"
	"replayopt/internal/sa"
)

// PassSpec selects one pass application with explicit parameters (defaults
// fill unspecified ones). Rewrite-trace headers and policy locks persist it
// through its json tags with its explicit parameters verbatim, catalog
// padding keys included, so the rebuilt Config fingerprints identically.
type PassSpec struct {
	Name   string         `json:"name"`
	Params map[string]int `json:"params,omitempty"`
}

// PassApplication is the pipeline's one record of a pass application,
// shared by every observer: Check writes its verdict into it, and Trace and
// the obs tallies read it instead of hashing the function again.
type PassApplication struct {
	Spec   PassSpec
	Info   *PassInfo
	Params map[string]int // resolved: defaults and clamping applied
	Ran    bool           // false when Trace vetoed it: no Run, no Check
	// Before and After are HashFunction digests taken once per application,
	// after Check, and chained (After is the next application's Before);
	// Fired is Ran && After != Before. Only an observed compile (Trace or
	// an obs scope) hashes; otherwise the three stay zero.
	Before, After uint64
	Fired         bool
	Notes         []RewriteNote // collected only with a Trace
	Dropped       int           // notes past the cap
	Err           error         // the error about to abort the compile
	// Verdict and VerdictReason are Check's conclusion, empty when no Check
	// judged the application.
	Verdict, VerdictReason string
}

// PipelineCheck observes the pipeline between passes. BeforePass sees the
// function immediately before a pass runs; AfterPass sees the result, records
// its verdict in app, and may veto the result by returning an error, which
// aborts the compile with that error. The pipeline does not edit the function
// between AfterPass and the next BeforePass, and a vetoed application (see
// RewriteTracer) calls neither, so what AfterPass saw is what the next
// BeforePass of the same function sees; the checker relies on it to keep
// one snapshot across applications that leave the function unchanged.
// internal/lir/tv implements this with a translation validator. The
// interface lives here (not in tv) so lir does not import its own checker.
type PipelineCheck interface {
	BeforePass(f *Function, app *PassApplication)
	AfterPass(f *Function, app *PassApplication) error
}

// RewriteTracer observes every pass application through its record — the
// rewrite-trace seam (internal/lir/rtrace implements it; the interface lives
// here for the same reason PipelineCheck does). BeforePass may also *veto*
// the application by returning false: the rtrace bisector replays a trace
// prefix mechanically by enabling exactly the applications under test. A
// vetoed pass is skipped entirely (no Run, no PipelineCheck), and AfterPass
// is still delivered, with Ran false, so sequence numbers stay aligned with
// the recorded trace. AfterPass sees the completed record, the verdict and
// the aborting error included.
type RewriteTracer interface {
	BeforePass(f *Function, app *PassApplication) bool
	AfterPass(f *Function, app *PassApplication)
}

// Config is one point in the toolchain's optimization space: the opt-style
// pass sequence plus the llc-style lowering options. GA genomes decode to
// Configs. Check, Trace, and Obs are evaluation-harness settings,
// deliberately excluded from Fingerprint: they must not change which configs
// the GA considers identical.
type Config struct {
	Passes []PassSpec
	Lower  LowerOpts
	// Check, when non-nil, is called around every pass application.
	Check PipelineCheck
	// Trace, when non-nil, observes (and may veto) every pass application —
	// the rewrite-trace seam. Purely a harness setting: recording a trace
	// never changes what the compile produces.
	Trace RewriteTracer
	// Obs, when non-nil, parents a per-compile span and receives per-pass
	// latency histograms (lir.pass_ms.<pass>) and fired/no-op tallies
	// (lir.pass_fired / lir.pass_noop) in its scope's registry. Purely
	// observational.
	Obs *obs.Span
}

// maxPipelineLength bounds genome-supplied pass sequences; longer pipelines
// are a compile timeout.
const maxPipelineLength = 128

// resolveParams merges defaults with explicit settings, clamping to spec
// ranges.
func resolveParams(info *PassInfo, explicit map[string]int) map[string]int {
	out := make(map[string]int, len(info.Params))
	for _, ps := range info.Params {
		v := ps.Default
		if e, ok := explicit[ps.Name]; ok {
			v = e
		}
		if v < ps.Min {
			v = ps.Min
		}
		if v > ps.Max {
			v = ps.Max
		}
		out[ps.Name] = v
	}
	return out
}

// CompileMethod builds, optimizes, and lowers one method under cfg. prof is
// the interpreted-replay type profile (§3.4) and static the interprocedural
// effect analysis (internal/sa); either may be nil, degrading the passes that
// consume them. Compiler crashes (pass panics and explicit CrashErrors) and
// timeouts are returned as their typed errors; the caller classifies
// outcomes (Fig. 1).
func CompileMethod(prog *dex.Program, id dex.MethodID, cfg Config, prof *Profile, static *sa.Result) (*machine.Fn, error) {
	return compileMethod(prog, id, cfg, prof, static, newSSACache(prog))
}

// compileMethod is CompileMethod with the SSA cache it shares with the other
// methods of one Compile: the root function and every inlined callee are
// copies of a method's one BuildSSA result.
func compileMethod(prog *dex.Program, id dex.MethodID, cfg Config, prof *Profile, static *sa.Result, ssa *ssaCache) (fn *machine.Fn, err error) {
	m := prog.Methods[id]
	if m.Uncompilable {
		return nil, &CrashError{Pass: "frontend", Msg: "method " + m.Name + " is not compilable"}
	}
	if len(cfg.Passes) > maxPipelineLength {
		return nil, &TimeoutError{Pass: "pipeline", Msg: fmt.Sprintf("%d passes exceed the step budget", len(cfg.Passes))}
	}
	defer func() {
		if r := recover(); r != nil {
			fn = nil
			err = &CrashError{Pass: "pipeline", Msg: fmt.Sprint(r)}
		}
	}()
	f, err := ssa.build(id)
	if err != nil {
		return nil, err
	}
	ctx := &PassContext{Profile: prof, Static: static, traceNotes: cfg.Trace != nil, ssa: ssa}
	scope := cfg.Obs.Scope()
	observed := cfg.Trace != nil || scope != nil
	var hash uint64
	if observed {
		hash = HashFunction(f)
	}
	for _, spec := range cfg.Passes {
		info, ok := PassByName(spec.Name)
		if !ok {
			return nil, &CrashError{Pass: spec.Name, Msg: "unknown pass"}
		}
		app := PassApplication{Spec: spec, Info: info, Params: resolveParams(info, spec.Params), Ran: true, Before: hash, After: hash}
		if cfg.Trace != nil {
			app.Ran = cfg.Trace.BeforePass(f, &app)
		}
		if app.Ran {
			if cfg.Check != nil {
				cfg.Check.BeforePass(f, &app)
			}
			start := time.Now()
			app.Err = info.Run(f, ctx, app.Params)
			// The pipeline, not the pass, re-establishes the CFG analyses
			// (analysis.go), on the error path too: Check, the hash and
			// the next pass see a function in reverse postorder.
			f.Recompute()
			tally := scope != nil && app.Err == nil
			if scope != nil {
				scope.Histogram("lir.pass_ms." + spec.Name).Observe(float64(time.Since(start).Microseconds()) / 1000)
			}
			if app.Err == nil {
				app.Err = ctx.checkGrowth(f, spec.Name)
			}
			if app.Err == nil && cfg.Check != nil {
				app.Err = cfg.Check.AfterPass(f, &app)
			}
			if observed {
				hash = HashFunction(f)
				app.After, app.Fired = hash, hash != app.Before
			}
			if tally {
				if app.Fired {
					scope.Tally("lir.pass_fired").Inc(spec.Name)
				} else {
					scope.Tally("lir.pass_noop").Inc(spec.Name)
				}
			}
		}
		// The tracer sees every application — including the one that is
		// about to abort the compile (a tv rejection lands in the trace as
		// the entry that ends it) — after Check has written its verdict.
		if cfg.Trace != nil {
			app.Notes, app.Dropped = ctx.drainNotes()
			cfg.Trace.AfterPass(f, &app)
		}
		if app.Err != nil {
			return nil, app.Err
		}
	}
	mfn, err := Lower(f, cfg.Lower)
	if err != nil {
		return nil, err
	}
	mfn.Method = id
	return mfn, nil
}

// Compile compiles the given methods under cfg into one code image. Methods
// is typically the hot region's method set (§3.1); pass nil to compile every
// compilable method.
func Compile(prog *dex.Program, methods []dex.MethodID, cfg Config, prof *Profile, static *sa.Result) (*machine.Program, error) {
	if methods == nil {
		for i := range prog.Methods {
			if !prog.Methods[i].Uncompilable {
				methods = append(methods, dex.MethodID(i))
			}
		}
	}
	sp := cfg.Obs.Start("lir.compile", obs.A("methods", len(methods)), obs.A("passes", len(cfg.Passes)))
	out := machine.NewProgram()
	ssa := newSSACache(prog)
	for _, id := range methods {
		fn, err := compileMethod(prog, id, cfg, prof, static, ssa)
		if err != nil {
			sp.End(obs.A("error", err.Error()))
			return nil, fmt.Errorf("compiling %s: %w", prog.Methods[id].Name, err)
		}
		out.Fns[id] = fn
	}
	sp.End()
	return out, nil
}

// Presets. O0 is a straight lowering; O1-O3 grow the pipeline the way the
// real toolchain's levels do. Note what O3 deliberately lacks: the custom
// GC-check deduplication (gccheckelim) and profile-guided devirtualization —
// the headroom the GA search exploits (§5.1).

// O0 disables optimization entirely.
func O0() Config {
	return Config{Lower: LowerOpts{Machine: machine.DefaultLowerOpts()}}
}

// O1 applies cheap canonicalization and local cleanups.
func O1() Config {
	return Config{
		Passes: []PassSpec{
			{Name: "phisimplify"},
			{Name: "constfold"},
			{Name: "instcombine"},
			{Name: "simplifycfg"},
			{Name: "gvn"},
			{Name: "dce"},
		},
		Lower: LowerOpts{
			FusedAddressing: true,
			Machine:         machine.LowerOpts{FuseLiterals: true, NumRegs: 26},
		},
	}
}

// O2 adds inlining, memory optimization, and loop-invariant code motion.
func O2() Config {
	c := O1()
	c.Passes = append(c.Passes,
		PassSpec{Name: "inline", Params: map[string]int{"threshold": 40}},
		PassSpec{Name: "intrinsics"},
		PassSpec{Name: "storeforward"},
		PassSpec{Name: "dse"},
		PassSpec{Name: "licm"},
		PassSpec{Name: "gvn"},
		PassSpec{Name: "bce"},
		PassSpec{Name: "sink"},
		PassSpec{Name: "simplifycfg"},
		PassSpec{Name: "dce"},
	)
	c.Lower.Machine.FuseMaddInt = true
	return c
}

// O3 adds aggressive inlining, reassociation, conservative unrolling (only
// constant trip counts, like the real heuristics), and scheduling.
func O3() Config {
	c := O2()
	c.Passes = append(c.Passes,
		PassSpec{Name: "inline", Params: map[string]int{"threshold": 120}},
		PassSpec{Name: "reassoc"},
		PassSpec{Name: "unroll", Params: map[string]int{"factor": 4, "const-trip-only": 1}},
		PassSpec{Name: "gvn"},
		PassSpec{Name: "simplifycfg"},
		PassSpec{Name: "dce"},
	)
	c.Lower.Machine.Schedule = true
	return c
}

// Preset returns the named preset config.
func Preset(name string) (Config, bool) {
	switch name {
	case "O0", "-O0":
		return O0(), true
	case "O1", "-O1":
		return O1(), true
	case "O2", "-O2":
		return O2(), true
	case "O3", "-O3":
		return O3(), true
	}
	return Config{}, false
}
