// Command detlint enforces the determinism rules of internal/sa/lint on the
// replay-critical packages: no time.Now, no global math/rand draws, no map
// iteration without a waiver, in internal/ga, internal/core, internal/replay,
// internal/sa, and internal/schema.
//
// Standalone (CI uses this form):
//
//	detlint                # lint the default deterministic package set
//	detlint ./internal/ga  # lint specific directories
//
// As a go vet tool (the unitchecker protocol, hand-implemented since
// golang.org/x/tools is not vendored):
//
//	go vet -vettool=$(pwd)/bin/detlint ./...
//
// go vet invokes the tool once with -V=full for its cache fingerprint, then
// once per package with a .cfg file describing the unit; packages outside the
// deterministic set are skipped. Exit status: 0 clean, 1 internal error,
// 2 findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"replayopt/internal/sa/lint"
)

// deterministicPkgs maps the import paths under the determinism contract to
// their repo-relative directories.
var deterministicPkgs = map[string]string{
	"replayopt/internal/ga":     "internal/ga",
	"replayopt/internal/core":   "internal/core",
	"replayopt/internal/replay": "internal/replay",
	"replayopt/internal/sa":     "internal/sa",
	"replayopt/internal/schema": "internal/schema",
}

// refPkgs are indexed for cross-package map-typed fields (machine.Program.Fns,
// lir.PassSpec.Params, ...) but not themselves linted.
var refPkgs = []string{"internal/lir", "internal/machine", "internal/capture", "internal/obs", "internal/dex"}

func main() {
	// go vet probes the tool's version and flag set before anything else.
	if len(os.Args) == 2 && (os.Args[1] == "-V=full" || os.Args[1] == "--V=full") {
		fmt.Println("detlint version 1")
		return
	}
	if len(os.Args) == 2 && (os.Args[1] == "-flags" || os.Args[1] == "--flags") {
		fmt.Println("[]") // no analyzer flags
		return
	}
	flag.Parse()
	args := flag.Args()

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0]))
	}
	os.Exit(runStandalone(args))
}

// newLinter builds a linter with the reference packages indexed. root is the
// repo root (the directory containing "internal").
func newLinter(root string) (*lint.Linter, error) {
	l := lint.New()
	for _, dir := range refPkgs {
		if err := l.IndexDir(filepath.Join(root, dir)); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func runStandalone(args []string) int {
	root, err := findRoot(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		return 1
	}
	dirs := args
	if len(dirs) == 0 {
		for _, d := range deterministicPkgs {
			dirs = append(dirs, filepath.Join(root, d))
		}
	}
	l, err := newLinter(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		return 1
	}
	// Index every target first so cross-target fields resolve, then lint.
	sortStrings(dirs)
	for _, d := range dirs {
		if err := l.IndexDir(d); err != nil {
			fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
			return 1
		}
	}
	bad := 0
	for _, d := range dirs {
		findings, err := l.LintDir(d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
			return 1
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", bad)
		return 2
	}
	return 0
}

// vetConfig is the subset of go vet's unit config the tool needs.
type vetConfig struct {
	ImportPath string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %s: %v\n", cfgPath, err)
		return 1
	}
	// The driver requires the facts file regardless of what we do.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly || deterministicPkgs[cfg.ImportPath] == "" || len(cfg.GoFiles) == 0 {
		return 0
	}
	root, err := findRoot(filepath.Dir(cfg.GoFiles[0]))
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		return 1
	}
	l, err := newLinter(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		return 1
	}
	findings, err := l.LintFiles(cfg.GoFiles...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// findRoot walks up from dir to the directory containing go.mod.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
