// Command tracelint validates a JSONL span trace written by
// replayopt/experiments/fleetd -trace. It reads the file with obs.ReadJSONL,
// the one span-trace reader: every line must decode strictly as a span (a
// rewrite-trace record is rejected; cmd/rtrace -validate reads those), span
// ids must be unique, parent references must resolve, and durations must be
// non-negative. -require asserts that named spans are present — CI uses it
// to prove a pipeline run really went profile → capture → verify → search →
// install.
//
// Usage:
//
//	tracelint [-require pipeline,profile,capture,verify,search,install] trace.jsonl
//
// Exits 0 on a valid trace, 1 otherwise, and prints per-span-name counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"replayopt/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated span names that must appear at least once")
	quiet := flag.Bool("q", false, "suppress the span-name count listing")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracelint [-require a,b,c] trace.jsonl")
		os.Exit(2)
	}
	path := flag.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	spans, err := obs.ReadJSONL(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracelint: %s: %v\n", path, err)
		os.Exit(1)
	}
	counts := map[string]int{}
	for _, sd := range spans {
		counts[sd.Name]++
	}

	if !*quiet {
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%6d  %s\n", counts[name], name)
		}
	}

	missing := []string{}
	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name != "" && counts[name] == 0 {
				missing = append(missing, name)
			}
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "tracelint: %s: required spans missing: %s\n",
			path, strings.Join(missing, ", "))
		os.Exit(1)
	}
	fmt.Printf("ok: %d spans, %d distinct names\n", len(spans), len(counts))
}
