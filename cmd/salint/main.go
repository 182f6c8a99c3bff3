// Command salint audits the static analyses behind the optimizer's region
// selection and verification over evaluation applications, one subcommand
// per analysis:
//
//   - effects: the interprocedural effect analysis (internal/sa). Per
//     method, why it is or is not deep-replayable: the effect summary, the
//     memory-footprint class, and, for every reachable non-replayable
//     method, the shortest witness call chain to the instruction that
//     introduces each hazard.
//   - range: the value-range analysis (internal/sa/vra and the lir range
//     passes). Per method, how many of the frontend's bounds checks and
//     divide trap guards it proves redundant, with a witness expression for
//     every unproven check inside the app's hot region.
//   - alias: the points-to/alias analysis (internal/sa/pts and the lir alias
//     engine). Per method, how many same-kind memory-access pairs (the
//     conflicts the alias-blind memory passes must assume) it proves apart
//     and how many allocation sites it proves non-escaping, with a witness
//     expression for every unproven pair inside the hot region.
//
// Usage:
//
//	salint effects -app DroidFish              # per-method report for one app
//	salint range -app FFT -method kernel       # detail for methods matching a substring
//	salint alias -all                          # summary line for every app
//	salint effects -app DroidFish -json        # machine-readable report
//	salint range -all -json                    # JSON reports, one per app (CI)
//	salint alias -list                         # list the known applications
//
// Every subcommand covers Table 1 plus the diagnostic WitnessFilter and
// ScratchFilter apps. The hot region that range and alias report on comes
// from the same online profiling run the optimizer's prepare stage performs,
// so "hot" means exactly the code the search would compile. -json strictly
// decodes every document it emits against its report schema first and fails
// the run on any mismatch. Exit status: 0 on success, 1 on
// build/analysis/validation failure, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"replayopt/internal/aot"
	"replayopt/internal/apps"
	"replayopt/internal/dex"
	"replayopt/internal/profile"
	"replayopt/internal/sa"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
	"replayopt/internal/schema"
)

const usage = "usage: salint {effects|range|alias} [-app NAME | -all | -list] [-method SUBSTR] [-json]"

func main() {
	os.Exit(salint(os.Args[1:], os.Stdout, os.Stderr))
}

// salint runs one subcommand and returns the exit status.
func salint(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	switch sub, rest := args[0], args[1:]; sub {
	case "effects":
		return audit(sub, rest, stdout, stderr, buildEffects, printEffects)
	case "range":
		return audit(sub, rest, stdout, stderr, buildRange, printRange)
	case "alias":
		return audit(sub, rest, stdout, stderr, buildAlias, printAlias)
	default:
		fmt.Fprintf(stderr, "salint: unknown subcommand %q\n%s\n", sub, usage)
		return 2
	}
}

// audit is the loop every subcommand shares: parse the flags, select apps,
// build each app's report, and emit it as self-checked JSON or through the
// subcommand's human printer.
func audit[R schema.Checker](sub string, args []string, stdout, stderr io.Writer,
	build func(apps.Spec) (R, error),
	show func(w io.Writer, rep R, methodFilter string, summaryOnly bool)) int {
	fs := flag.NewFlagSet("salint "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "", "application to lint (see -list)")
	all := fs.Bool("all", false, "lint every known application")
	method := fs.String("method", "", "only report methods whose name contains this substring")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (one document per app)")
	list := fs.Bool("list", false, "list the known applications")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, s := range knownSpecs() {
			fmt.Fprintf(stdout, "%-14s %-22s %s\n", s.Type, s.Name, s.Desc)
		}
		return 0
	}

	var specs []apps.Spec
	switch {
	case *all:
		specs = knownSpecs()
	case *appName != "":
		spec, ok := byName(*appName)
		if !ok {
			fmt.Fprintf(stderr, "salint: unknown app %q (use -list)\n", *appName)
			return 2
		}
		specs = []apps.Spec{spec}
	default:
		fmt.Fprintln(stderr, "salint: need -app NAME or -all (use -list to see apps)")
		return 2
	}

	for _, spec := range specs {
		rep, err := build(spec)
		if err != nil {
			fmt.Fprintf(stderr, "salint: %v\n", err)
			return 1
		}
		if !*jsonOut {
			show(stdout, rep, *method, *all)
			continue
		}
		data, err := schema.Encode(rep)
		if err != nil {
			fmt.Fprintf(stderr, "salint: %s: %v\n", spec.Name, err)
			return 1
		}
		if _, err := stdout.Write(data); err != nil {
			fmt.Fprintf(stderr, "salint: %v\n", err)
			return 1
		}
	}
	return 0
}

// knownSpecs is Table 1 plus the diagnostic witness and scratch apps.
func knownSpecs() []apps.Spec {
	return append(apps.All(), apps.WitnessSpec(), apps.ScratchSpec())
}

func byName(name string) (apps.Spec, bool) {
	for _, s := range knownSpecs() {
		if s.Name == name {
			return s, true
		}
	}
	return apps.Spec{}, false
}

func buildEffects(spec apps.Spec) (*sa.Report, error) {
	app, err := apps.Build(spec)
	if err != nil {
		return nil, err
	}
	return sa.Analyze(app.Prog).Report(spec.Name), nil
}

func printEffects(w io.Writer, rep *sa.Report, methodFilter string, summaryOnly bool) {
	c := rep.Coverage
	fmt.Fprintf(w, "%s: %d methods, %d replayable (%.1f%%); reachable %d, of those %d replayable\n",
		rep.App, c.Methods, c.Replayable, c.ReplayablePct, c.Reachable, c.ReachableReplayable)
	if summaryOnly {
		return
	}

	// Witness chains by method, for the verdict column.
	witness := map[string][]sa.WitnessReport{}
	for _, wr := range rep.Witnesses {
		witness[wr.Method] = append(witness[wr.Method], wr)
	}
	fmt.Fprintf(w, "  %-28s %-30s %s\n", "METHOD", "EFFECT", "VERDICT")
	for _, m := range rep.Methods {
		if methodFilter != "" && !strings.Contains(m.Name, methodFilter) {
			continue
		}
		verdict := "replayable"
		switch {
		case !m.Reachable && m.Replayable:
			verdict = "replayable (unreachable)"
		case !m.Reachable:
			verdict = "not replayable (unreachable)"
		case !m.Replayable:
			verdict = "not replayable: " + strings.Join(m.Hazards, ",")
		}
		fmt.Fprintf(w, "  %-28s %-30s %s\n", m.Name, m.Effect, verdict)
		for _, wr := range witness[m.Name] {
			fmt.Fprintf(w, "      %s via %s", wr.Hazard, strings.Join(wr.Chain, " -> "))
			if wr.Cause != "" {
				fmt.Fprintf(w, " (%s)", wr.Cause)
			}
			fmt.Fprintln(w)
		}
	}
}

// hotRegion builds the app, profiles one online run to locate the hot
// region, and returns the effect analysis with the region's method ids (nil
// when the app has none).
func hotRegion(spec apps.Spec) (*sa.Result, []dex.MethodID, error) {
	app, err := apps.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	android, err := aot.Compile(app.Prog)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: baseline compile: %w", spec.Name, err)
	}
	prof := profile.NewProfile()
	_, x := app.NewProcessAndExec(android)
	x.SamplePeriod = profile.SamplePeriodCycles
	x.Sampler = prof
	x.MaxCycles = 50_000_000_000
	if _, err := x.Call(app.Prog.Entry, nil); err != nil {
		return nil, nil, fmt.Errorf("%s: profiling run: %w", spec.Name, err)
	}
	analysis := profile.Analyze(app.Prog)
	var hot []dex.MethodID
	if region, ok := profile.HotRegion(app.Prog, analysis, prof); ok {
		hot = region.Methods
	}
	return analysis.Effects, hot, nil
}

func buildRange(spec apps.Spec) (*vra.Report, error) {
	static, hot, err := hotRegion(spec)
	if err != nil {
		return nil, err
	}
	vra.Attach(static)
	return vra.BuildReport(spec.Name, static, hot), nil
}

func printRange(w io.Writer, rep *vra.Report, methodFilter string, summaryOnly bool) {
	t := rep.Totals
	fmt.Fprintf(w, "%s: %d/%d bounds checks proven (%.1f%%), %d/%d divide guards; %d params, %d returns narrowed\n",
		rep.App, t.Proven, t.Checks, pct(t.Proven, t.Checks), t.DivProven, t.DivSites, t.ParamsNarrowed, t.RetsNarrowed)
	if summaryOnly {
		return
	}
	fmt.Fprintf(w, "  %-28s %-5s %-14s %s\n", "METHOD", "HOT", "CHECKS", "DIVS")
	for _, m := range rep.Methods {
		if methodFilter != "" && !strings.Contains(m.Method, methodFilter) {
			continue
		}
		fmt.Fprintf(w, "  %-28s %-5s %3d/%-3d proven %3d/%-3d proven\n",
			m.Method, hotMark(m.Hot), m.Proven, m.Checks, m.DivProven, m.DivSites)
		for _, wr := range m.Witnesses {
			fmt.Fprintf(w, "      unproven at %s: %s\n", wr.Block, wr.Expr)
		}
	}
}

func buildAlias(spec apps.Spec) (*pts.Report, error) {
	static, hot, err := hotRegion(spec)
	if err != nil {
		return nil, err
	}
	pts.Attach(static)
	return pts.BuildReport(spec.Name, static, hot), nil
}

func printAlias(w io.Writer, rep *pts.Report, methodFilter string, summaryOnly bool) {
	t := rep.Totals
	fmt.Fprintf(w, "%s: %d/%d alias pairs proven apart (%.1f%%), %d/%d sites non-escaping; %d methods mod/ref-bounded\n",
		rep.App, t.Proven, t.Pairs, pct(t.Proven, t.Pairs), t.NonEscaping, t.Sites, t.BoundedMethods)
	if summaryOnly {
		return
	}
	fmt.Fprintf(w, "  %-28s %-5s %-14s %s\n", "METHOD", "HOT", "PAIRS", "SITES")
	for _, m := range rep.Methods {
		if methodFilter != "" && !strings.Contains(m.Method, methodFilter) {
			continue
		}
		fmt.Fprintf(w, "  %-28s %-5s %3d/%-3d proven %3d/%-3d local\n",
			m.Method, hotMark(m.Hot), m.Proven, m.Pairs, m.NonEscaping, m.Sites)
		for _, wr := range m.Witnesses {
			fmt.Fprintf(w, "      unproven at %s: %s\n", wr.Block, wr.Expr)
		}
	}
}

// pct is part as a percentage of whole, 0 when whole is 0.
func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func hotMark(hot bool) string {
	if hot {
		return "hot"
	}
	return ""
}
