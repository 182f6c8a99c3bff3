// Command rtrace consumes rewrite-path traces and policy locks
// (internal/lir/rtrace): the machine-readable record of every optimization
// decision behind a compiled image that replayopt -rtrace / -lock emit.
//
// Usage:
//
//	rtrace [-json] replay [-app NAME] trace.jsonl
//	rtrace [-json] lock-check [-static] [-app NAME] [-seed 1] lock.json
//
// replay re-executes a trace mechanically against a re-prepared pipeline
// (core.Prepare is deterministic for the header's seed) and proves it
// reproduces the recorded image fingerprint, hash by hash. Exit 1 on any
// divergence.
//
// lock-check audits a policy lock against the current compiler: statically
// (pass registry, param ranges, llc catalog, fingerprint) and — unless
// -static is set — dynamically, recompiling the app's region to detect
// decisions that no longer fire and image drift. Exit 1 on any drift.
//
// replay reads the trace with rtrace.ReadTrace, the format's one reader and
// validator, so a corrupt trace fails before any compile runs. -json
// switches every subcommand's output to machine-readable JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/lir/rtrace"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()

	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "replay":
		runReplay(args[1:], *jsonOut)
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
  rtrace [-json] lock-check [-static] [-app NAME] [-seed 1] lock.json`)
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
