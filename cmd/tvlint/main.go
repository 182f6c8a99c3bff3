// Command tvlint audits the LIR pass pipeline with translation validation:
// it compiles evaluation apps under the optimization presets with the
// per-pass equivalence checker attached and reports every verdict.
//
// Usage:
//
//	tvlint [-apps FFT,DroidFish] [-presets O1,O2,O3]
//	tvlint -json > tv.json
//
// -json emits the machine-readable report (schema_version 2), strictly
// decoded against its schema before it is written. The exit status is 1
// when any pass is Rejected (a provable miscompile) or when the report fails
// its own schema; Unverified verdicts are informational (the validator could
// not prove equivalence, which is not evidence of a bug).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"replayopt/internal/apps"
	"replayopt/internal/lir"
	"replayopt/internal/lir/tv"
	"replayopt/internal/schema"
)

func main() {
	appsFlag := flag.String("apps", "", "comma-separated app subset (default: all)")
	presetsFlag := flag.String("presets", "O1,O2,O3", "comma-separated optimization presets to audit")
	jsonOut := flag.Bool("json", false, "emit the machine-readable report instead of tables")
	flag.Parse()

	rep := tv.Report{SchemaVersion: tv.ReportSchemaVersion, Presets: []tv.PresetReport{}}
	bad := false
	for _, spec := range selectedApps(*appsFlag) {
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

	if *jsonOut {
		data, err := schema.Encode(&rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tvlint: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
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
