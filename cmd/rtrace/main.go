// Command rtrace consumes rewrite-path traces and policy locks
// (internal/lir/rtrace): the machine-readable record of every optimization
// decision behind a compiled image that replayopt -rtrace / -lock emit.
//
// Usage:
//
//	rtrace [-json] replay [-app NAME] trace.jsonl
//	rtrace [-json] bisect -app NAME [-base O2|catalog] [-at 4] [-seed 1]
//	rtrace [-json] lock-check [-static] [-app NAME] [-seed 1] lock.json
//	rtrace [-json] -validate trace.jsonl [more.jsonl ...]
//
// replay re-executes a trace mechanically against a re-prepared pipeline
// (core.Prepare is deterministic for the header's seed) and proves it
// reproduces the recorded image fingerprint, hash by hash. Exit 1 on any
// divergence.
//
// bisect is the regression drill: it seeds the deliberately miscompiling
// tvbreak pass into a preset pipeline over a real app (all compilable
// methods by default; -region restricts to the hot region), records the
// rewrite trace, then binary-searches the trace prefix with a
// translation-validation oracle and greedily shrinks the enabled set — the
// exact workflow for pinning a real miscompile to one transform application.
// Exit 1 if the pinned application is not the seeded pass, or if the seeded
// pass found nothing to break (it skews the first always-executed integer
// store, which pure loop kernels lack — interactive apps such as
// MaterialLife or 4inaRow always qualify).
//
// lock-check audits a policy lock against the current compiler: statically
// (pass registry, param ranges, llc catalog, fingerprint) and — unless
// -static is set — dynamically, recompiling the app's region to detect
// decisions that no longer fire and image drift. Exit 1 on any drift.
//
// -validate reads each file with rtrace.ReadTrace, the trace reader replay
// and bisect use, and prints a summary. A trace without an image trailer,
// from an aborted compile, is valid but not replayable. -json switches
// every subcommand's output to machine-readable JSON.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/dex"
	"replayopt/internal/lir"
	"replayopt/internal/lir/rtrace"
	"replayopt/internal/lir/tv"
	"replayopt/internal/machine"
	"replayopt/internal/obs"
	"replayopt/internal/sa"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	validate := flag.Bool("validate", false, "validate trace files with the reader replay uses")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()

	if *validate {
		runValidate(args, *jsonOut)
		return
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "replay":
		runReplay(args[1:], *jsonOut)
	case "bisect":
		runBisect(args[1:], *jsonOut)
	case "lock-check":
		runLockCheck(args[1:], *jsonOut)
	default:
		fmt.Fprintf(os.Stderr, "rtrace: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rtrace [-json] replay [-app NAME] trace.jsonl
  rtrace [-json] bisect -app NAME [-base O2|catalog] [-at 4] [-seed 1]
  rtrace [-json] lock-check [-static] [-app NAME] [-seed 1] lock.json
  rtrace [-json] -validate trace.jsonl [more.jsonl ...]`)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "rtrace:", err)
	os.Exit(1)
}

func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		die(err)
	}
}

// prepareApp re-runs the deterministic pipeline front half (profile, capture,
// verify) so trace consumers get the exact compile inputs — type profile and
// static analysis — the recorded run used for this app and seed.
func prepareApp(name string, seed int64) (*core.App, *core.Prepared, error) {
	spec, ok := apps.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown app %q (see replayopt -list)", name)
	}
	app, err := apps.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Seed = seed
	p, err := core.New(opts).Prepare(app)
	if err != nil {
		return nil, nil, err
	}
	return app, p, nil
}

func runValidate(paths []string, jsonOut bool) {
	if len(paths) == 0 {
		usage()
		os.Exit(2)
	}
	ok := true
	for _, path := range paths {
		tr, err := rtrace.ReadTraceFile(path)
		if err != nil {
			ok = false
			if jsonOut {
				emit(map[string]any{"file": path, "valid": false, "error": err.Error()})
			} else {
				fmt.Fprintf(os.Stderr, "rtrace: %s: %v\n", path, err)
			}
			continue
		}
		fired := map[string]int{}
		for _, e := range tr.Entries {
			if e.Fired {
				fired[e.Pass]++
			}
		}
		image := "no image trailer (aborted compile, not replayable)"
		if tr.Trailer != nil {
			image = "image " + tr.Trailer.ImageHash
		}
		if jsonOut {
			emit(map[string]any{"file": path, "valid": true, "entries": len(tr.Entries), "fired": fired, "trailer": tr.Trailer})
		} else {
			fmt.Printf("%s: ok — %d rewrites (%d passes fired), %s\n", path, len(tr.Entries), len(fired), image)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func runReplay(args []string, jsonOut bool) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	appName := fs.String("app", "", "app to replay against (default: the trace header's app)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	tr, err := rtrace.ReadTraceFile(fs.Arg(0))
	if err != nil {
		die(err)
	}
	name := tr.Header.App
	if *appName != "" {
		name = *appName
	}
	if name == "" {
		die(fmt.Errorf("trace header names no app; pass -app"))
	}
	app, p, err := prepareApp(name, tr.Header.Seed)
	if err != nil {
		die(err)
	}
	res, err := rtrace.Replay(app.Prog, tr, p.TypeProf, p.Analysis.Effects)
	if err != nil {
		die(err)
	}
	if jsonOut {
		emit(res)
	} else if res.Match {
		fmt.Printf("ok: %d applications replayed, image fingerprint %s reproduced\n", res.Entries, res.ImageHash)
	} else {
		fmt.Printf("DIVERGED: %v\n", res.Divergence)
	}
	if !res.Match {
		os.Exit(1)
	}
}

// basePipeline resolves the bisect -base argument. Preset names go through
// lir.Preset so the accepted set tracks the pipeline presets instead of a
// hand-maintained switch here; "catalog" derives the drill pipeline from the
// pass catalog itself — every safe entry's default spec, in catalog order,
// deduplicated by pass name (the catalog pads with repeat-position and
// parameter-sweep variants of the same pass).
func basePipeline(name string) (lir.Config, error) {
	if cfg, ok := lir.Preset(name); ok {
		return cfg, nil
	}
	if name != "catalog" {
		return lir.Config{}, fmt.Errorf("-base must be a preset (O1|O2|O3) or \"catalog\", got %q", name)
	}
	cfg := lir.O1() // keep O1's lowering options; the pass list is replaced
	cfg.Passes = nil
	// vectorize models a real vectorizer's not-implemented crash path (it
	// errors on loops containing calls); the drill pipeline must compile
	// every app, so it stays out.
	seen := map[string]bool{"vectorize": true}
	for _, e := range lir.SafeOptCatalog() {
		if seen[e.Spec.Name] {
			continue
		}
		seen[e.Spec.Name] = true
		cfg.Passes = append(cfg.Passes, e.Spec)
	}
	return cfg, nil
}

// bisectReport is the bisect subcommand's JSON shape.
type bisectReport struct {
	App        string               `json:"app"`
	Base       string               `json:"base"`
	Entries    int                  `json:"entries"`
	Result     *rtrace.BisectResult `json:"result"`
	PinnedPass string               `json:"pinned_pass"`
	PinnedFn   string               `json:"pinned_fn"`
	Expected   string               `json:"expected"`
	Correct    bool                 `json:"correct"`
}

func runBisect(args []string, jsonOut bool) {
	fs := flag.NewFlagSet("bisect", flag.ExitOnError)
	appName := fs.String("app", "", "evaluation app to drill on (required)")
	base := fs.String("base", "O2", "pipeline to seed the miscompile into (O1|O2|O3, or \"catalog\" for every safe catalog pass)")
	at := fs.Int("at", 4, "pipeline position the drill pass is inserted at")
	seed := fs.Int64("seed", 1, "prepare seed (only used with -region)")
	region := fs.Bool("region", false,
		"drill over the app's hot region instead of the whole program (needs a region function with an always-executed int store, or the seeded pass has nothing to break)")
	fs.Parse(args)
	if *appName == "" {
		usage()
		os.Exit(2)
	}
	cfg, err := basePipeline(*base)
	if err != nil {
		die(err)
	}
	cleanup := lir.RegisterForTesting(tv.MiscompilePass())
	defer cleanup()
	pos := *at
	if pos < 0 || pos > len(cfg.Passes) {
		pos = len(cfg.Passes)
	}
	passes := append([]lir.PassSpec(nil), cfg.Passes[:pos]...)
	passes = append(passes, lir.PassSpec{Name: tv.MiscompilePassName})
	cfg.Passes = append(passes, cfg.Passes[pos:]...)

	// Default drill scope is the whole program: the seeded pass skews the
	// first always-executed integer store it finds, and hot-region kernels
	// often keep every store inside a loop, leaving it nothing to break.
	var app *core.App
	var methods []dex.MethodID
	var prof *lir.Profile
	var static *sa.Result
	if *region {
		var p *core.Prepared
		var err error
		app, p, err = prepareApp(*appName, *seed)
		if err != nil {
			die(err)
		}
		methods, prof, static = p.Region.Methods, p.TypeProf, p.Analysis.Effects
	} else {
		spec, ok := apps.ByName(*appName)
		if !ok {
			die(fmt.Errorf("unknown app %q (see replayopt -list)", *appName))
		}
		var err error
		app, err = apps.Build(spec)
		if err != nil {
			die(err)
		}
		for i := range app.Prog.Methods {
			if !app.Prog.Methods[i].Uncompilable {
				methods = append(methods, dex.MethodID(i))
			}
		}
	}

	// Record the miscompiling pipeline's trace, exactly as replayopt -rtrace
	// would for a winner.
	var buf bytes.Buffer
	rec := rtrace.NewRecorder(obs.NewJSONLWriter(&buf), rtrace.RecorderOptions{})
	if err := rec.WriteHeader(app.Name, *seed, cfg, methods); err != nil {
		die(err)
	}
	tcfg := cfg
	tcfg.Trace = rec
	code, err := lir.Compile(app.Prog, methods, tcfg, prof, static)
	if err != nil {
		die(fmt.Errorf("drill compile failed before bisection: %w", err))
	}
	if err := rec.Finish(machine.HashProgram(code)); err != nil {
		die(err)
	}
	if rec.Fired()[tv.MiscompilePassName] == 0 {
		die(fmt.Errorf("the seeded %s pass found no always-executed integer store to skew in %s; try another -app or drop -region",
			tv.MiscompilePassName, app.Name))
	}
	tr, err := rtrace.ReadTrace(&buf)
	if err != nil {
		die(err)
	}

	bad := func(enabled func(seq int) bool) bool {
		probe := cfg
		probe.Check = tv.NewChecker(tv.Options{Reject: true, Strict: true})
		_, _, cerr := rtrace.CompileMasked(app.Prog, methods, probe, prof, static, enabled)
		var rej *tv.RejectError
		return errors.As(cerr, &rej)
	}
	res, err := rtrace.Bisect(len(tr.Entries), bad)
	if err != nil {
		die(err)
	}
	pinned := tr.Entries[res.BadSeq]
	rep := &bisectReport{
		App: app.Name, Base: *base, Entries: len(tr.Entries), Result: res,
		PinnedPass: pinned.Pass, PinnedFn: pinned.Fn,
		Expected: tv.MiscompilePassName, Correct: pinned.Pass == tv.MiscompilePassName,
	}
	if jsonOut {
		emit(rep)
	} else {
		scope := "all compilable methods"
		if *region {
			scope = "the hot region"
		}
		fmt.Printf("trace: %d applications of %s+%s over %s of %s\n",
			rep.Entries, *base, tv.MiscompilePassName, scope, app.Name)
		fmt.Printf("pinned: seq %d — pass %s in %s (%d bisection steps, %d shrink steps, minimal set %d)\n",
			res.BadSeq, pinned.Pass, pinned.Fn, res.Steps, res.ShrinkSteps, len(res.Minimal))
		if rep.Correct {
			fmt.Println("ok: the seeded miscompile was pinned exactly")
		} else {
			fmt.Printf("WRONG: expected %s\n", tv.MiscompilePassName)
		}
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func runLockCheck(args []string, jsonOut bool) {
	fs := flag.NewFlagSet("lock-check", flag.ExitOnError)
	appName := fs.String("app", "", "app for the dynamic check (default: the lock's app)")
	seed := fs.Int64("seed", 1, "prepare seed for the dynamic check")
	static := fs.Bool("static", false, "static audit only: skip the recompile-based drift checks")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	l, err := rtrace.ReadLockFile(fs.Arg(0))
	if err != nil {
		die(err)
	}
	var drifts []rtrace.Drift
	if *static {
		drifts = rtrace.CheckLock(l)
	} else {
		name := l.App
		if *appName != "" {
			name = *appName
		}
		if name == "" {
			die(fmt.Errorf("lock names no app; pass -app or -static"))
		}
		app, p, err := prepareApp(name, *seed)
		if err != nil {
			die(err)
		}
		drifts = rtrace.CheckLockDynamic(l, app.Prog, p.Region.Methods, p.TypeProf, p.Analysis.Effects)
	}
	if jsonOut {
		emit(map[string]any{"file": fs.Arg(0), "drifts": drifts, "clean": len(drifts) == 0})
	} else if len(drifts) == 0 {
		fmt.Printf("ok: %d locked passes (%d firing) hold against the current compiler\n",
			len(l.Passes), len(l.Fired))
	} else {
		for _, d := range drifts {
			fmt.Printf("drift [%s]: %s\n", d.Kind, d.Detail)
		}
	}
	if len(drifts) > 0 {
		os.Exit(1)
	}
}
