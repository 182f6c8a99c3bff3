// Package exp regenerates every table and figure of the paper's evaluation
// (§5). Each experiment returns typed rows and renders an aligned text
// table; cmd/experiments drives them.
//
// Scale note: experiments accept a Scale so CI-sized runs finish quickly;
// Full() mirrors the paper's §4 parameters exactly.
package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/ga"
	"replayopt/internal/obs"
)

// Scale sets the experiment budget.
type Scale struct {
	Name string
	GA   ga.Options
	// RandomSeqs is the Fig. 1/2 sample count.
	RandomSeqs int
	// OnlineEvals is Fig. 3's maximum evaluation count.
	OnlineEvals int
	// BootstrapSeqs is Fig. 3's CI resample count.
	BootstrapSeqs int
	// Apps optionally restricts the app set (nil = all 21).
	Apps []string
	// Workers parallelizes per-app pipelines (apps are independent and
	// independently seeded, so results match the sequential run). 0 means
	// GOMAXPROCS.
	Workers int
	// Obs, when set, receives spans and metrics from every pipeline an
	// experiment runs. Purely observational: tables are identical with or
	// without it. Safe under Workers > 1 (the scope is concurrency-safe).
	Obs *obs.Scope
	// TVCheck turns on translation validation inside every candidate
	// compile: provable miscompiles become tv-reject discards before any
	// replay runs. Search traces are unaffected (core.Options.TVCheck).
	TVCheck bool
}

// Full mirrors §4: 11 generations of 50 genomes, 100 random sequences,
// 10^4 online evaluations.
func Full() Scale {
	return Scale{
		Name:          "full",
		GA:            ga.DefaultOptions(),
		RandomSeqs:    100,
		OnlineEvals:   10000,
		BootstrapSeqs: 100,
	}
}

// Quick is a reduced-budget scale for benchmarks and CI: the same pipeline,
// smaller population and sample counts. Shapes still hold; absolute
// positions move slightly.
func Quick() Scale {
	s := Full()
	s.Name = "quick"
	s.GA.Population = 16
	s.GA.Generations = 6
	s.GA.HillClimbBudget = 12
	s.RandomSeqs = 60
	s.OnlineEvals = 3000
	s.BootstrapSeqs = 40
	return s
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// selectedApps resolves the scale's app list.
func selectedApps(s Scale) []apps.Spec {
	all := apps.All()
	if len(s.Apps) == 0 {
		return all
	}
	var out []apps.Spec
	for _, name := range s.Apps {
		if spec, ok := apps.ByName(name); ok {
			out = append(out, spec)
		}
	}
	return out
}

// PrepareApp builds and prepares one app (pipeline steps 1-4): everything
// needed to evaluate candidate configurations by replay. The benchmark
// harness uses it to run searches against a real evaluator directly.
func PrepareApp(name string, seed int64) (*core.Prepared, *core.Optimizer, error) {
	return prepareApp(name, seed, nil, false)
}

// prepareApp builds and prepares one app (pipeline steps 1-5).
func prepareApp(name string, seed int64, sc *obs.Scope, tvcheck bool) (*core.Prepared, *core.Optimizer, error) {
	spec, ok := apps.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("exp: unknown app %q", name)
	}
	app, err := apps.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Obs = sc
	opts.TVCheck = tvcheck
	opt := core.New(opts)
	p, err := opt.Prepare(app)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: preparing %s: %w", name, err)
	}
	return p, opt, nil
}

// forEachApp runs fn over the scale's apps, possibly in parallel, and
// returns the first error. Results are delivered through fn's index.
func forEachApp(s Scale, fn func(i int, spec apps.Spec) error) error {
	specs := selectedApps(s)
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i, spec := range specs {
			if err := fn(i, spec); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	sem := make(chan struct{}, workers)
	for i, spec := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, spec apps.Spec) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i, spec)
		}(i, spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Table1 renders the application list (Table 1).
func Table1() *Table {
	t := &Table{
		Title:  "Table 1: Android applications used in the experiments",
		Header: []string{"Type", "Name", "Description"},
	}
	for _, s := range apps.All() {
		t.Rows = append(t.Rows, []string{string(s.Type), s.Name, s.Desc})
	}
	return t
}
