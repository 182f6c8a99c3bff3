// Command tvlint audits the LIR pass pipeline with translation validation:
// it compiles evaluation apps under the optimization presets with the
// per-pass equivalence checker attached and reports every verdict, and can
// fuzz individual passes differentially against the interpreter.
//
// Usage:
//
//	tvlint [-apps FFT,DroidFish] [-presets O1,O2,O3]
//	tvlint -fuzz 10 [-passes dce,gvn]
//	tvlint -json > tv.json
//	tvlint -validate < tv.json
//
// -json emits the machine-readable report (schema_version 1); -validate
// reads a report from stdin and structurally checks it — CI pipes one into
// the other. The exit status is 1 when any pass is Rejected (a provable
// miscompile), when the fuzzer finds a defect, or when validation fails;
// Unverified verdicts are informational (the validator could not prove
// equivalence, which is not evidence of a bug).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"replayopt/internal/apps"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
)

func main() {
	appsFlag := flag.String("apps", "", "comma-separated app subset (default: all)")
	presetsFlag := flag.String("presets", "O1,O2,O3", "comma-separated optimization presets to audit")
	fuzz := flag.Int("fuzz", 0, "differentially fuzz each pass on N generated programs (0 = off)")
	passesFlag := flag.String("passes", "", "comma-separated pass subset for -fuzz (default: all registered)")
	jsonOut := flag.Bool("json", false, "emit the machine-readable report instead of tables")
	validate := flag.Bool("validate", false, "read a JSON report from stdin and validate its structure")
	flag.Parse()

	if *validate {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tv.ValidateReportJSON(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("report ok")
		return
	}

	rep := tv.Report{SchemaVersion: tv.ReportSchemaVersion, Presets: []tv.PresetReport{}, Fuzz: []tv.DiffFailure{}}
	bad := false

	if *fuzz > 0 {
		var passes []string
		if *passesFlag != "" {
			passes = strings.Split(*passesFlag, ",")
		}
		fails := tv.Differential(tv.DiffOptions{Seeds: *fuzz, Passes: passes})
		rep.Fuzz = append(rep.Fuzz, fails...)
		bad = bad || len(fails) > 0
		if !*jsonOut && len(fails) == 0 {
			fmt.Printf("fuzz clean: %d seeds per pass, no defects\n", *fuzz)
		}
	} else {
		specs := selectedApps(*appsFlag)
		for _, spec := range specs {
			app, err := apps.Build(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tvlint: building %s: %v\n", spec.Name, err)
				os.Exit(1)
			}
			for _, preset := range strings.Split(*presetsFlag, ",") {
				cfg, ok := lir.Preset(preset)
				if !ok {
					fmt.Fprintf(os.Stderr, "tvlint: unknown preset %q\n", preset)
					os.Exit(2)
				}
				chk := tv.NewChecker(tv.Options{Strict: true})
				cfg.Check = chk
				if _, err := lir.Compile(app.Prog, nil, cfg, nil, nil); err != nil {
					fmt.Fprintf(os.Stderr, "tvlint: %s at %s: %v\n", spec.Name, preset, err)
					os.Exit(1)
				}
				pr := tv.PresetFromChecker(spec.Name, preset, chk)
				rep.Presets = append(rep.Presets, pr)
				bad = bad || pr.Rejected > 0
			}
		}
	}

	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tv.ValidateReportJSON(data); err != nil {
			fmt.Fprintf(os.Stderr, "tvlint: emitted report fails own validation: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		printTables(rep)
	}
	if bad {
		os.Exit(1)
	}
}

func selectedApps(names string) []apps.Spec {
	if names == "" {
		return apps.All()
	}
	var out []apps.Spec
	for _, name := range strings.Split(names, ",") {
		spec, ok := apps.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "tvlint: unknown app %q\n", name)
			os.Exit(2)
		}
		out = append(out, spec)
	}
	return out
}

func printTables(rep tv.Report) {
	if len(rep.Presets) > 0 {
		fmt.Printf("%-22s %-7s %9s %11s %9s\n", "app", "preset", "verified", "unverified", "rejected")
		for _, pr := range rep.Presets {
			fmt.Printf("%-22s %-7s %9d %11d %9d\n", pr.App, pr.Preset, pr.Verified, pr.Unverified, pr.Rejected)
			for _, row := range pr.Verdicts {
				if row.Verdict == "rejected" {
					fmt.Printf("  REJECTED %s on %s: %s\n", row.Pass, row.Fn, row.Reason)
				}
			}
		}
	}
	for _, f := range rep.Fuzz {
		fmt.Printf("FUZZ %s seed=%d kind=%s: %s\n", f.Pass, f.Seed, f.Kind, f.Detail)
		fmt.Println("  reproducer:")
		for _, line := range strings.Split(f.Source, "\n") {
			fmt.Printf("    %s\n", line)
		}
	}
}
