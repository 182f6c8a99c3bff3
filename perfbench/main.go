// Command perfbench is the end-to-end benchmark of the Fig. 6 loop. It runs
// core.Optimizer.Optimize on a fixed app mix (a workload, see workloads.go) at
// the paper's §4 budgets — 50 genomes, 11 generations, 10 replays, 10 online
// runs, warm workers, one GA worker per CPU — and checks every installed
// winner against the interpreter. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload replay-heavy --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (endToEnd below) with observation
// off. --trace 1 is the separate traced run: it harvests the program's own
// spans and histograms through an obs.Collect scope and times the public
// layer calls from this package (probe.go), reporting the per-layer metrics.
//
// --seed permutes the closed-loop order of the workload's apps and picks the
// candidates the layer probe re-runs. The GA's own seed is part of the
// workload definition (--search-seed, default 1): a different search seed is a
// different search (Sieve's winner is 1.54x at seed 1 and 2.14x at seed 2), so
// it cannot vary between runs that are compared. Seed 2 is held out: check a
// gain there after developing it at seed 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/interp"
	"replayopt/internal/lir"
	"replayopt/internal/lir/rtrace"
	"replayopt/internal/machine"
	"replayopt/internal/obs"
	"replayopt/internal/rt"
)

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics of the JSON result. Times are medians
// over the passes of a run; each is summed over the workload's apps.
var endToEnd = []metricDef{
	{"cpu_s", "s"},             // user+sys CPU during Optimize
	{"setup_s", "s"},           // apps.Build + Prepare on a fresh optimizer, per-app medians of setupReps
	{"peak_rss_mb", "MB"},      // peak resident memory of the process
	{"speedup_ga", "x"},        // geometric mean of Report.SpeedupGA (Fig. 7)
	{"region_speedup_ga", "x"}, // geometric mean of Report.RegionSpeedupGA (Fig. 9)
	{"passed_frac", "frac"},    // 1 - failed_frac: apps optimized and checked correct
}

// printedOnly are end-to-end metrics the report prints but the JSON result
// leaves out: on a shared 2-vCPU VM their run-to-run spread (0.14 to 0.28 of
// the median over ten runs, as steal time and host speed drift) is wider
// than any regression bound, while cpu_s excludes stolen time and idle
// workers and spreads less.
var printedOnly = []metricDef{
	{"wall_s", "s"},        // Optimize wall-clock
	{"evals_per_s", "1/s"}, // fresh evaluations over wall_s
	{"failed_frac", "frac"},
}

// setupReps is how often a run repeats the set-up.
const setupReps = 5

type options struct {
	workload   workload
	seed       int64
	searchSeed int64
	seconds    float64
	trace      bool
	// smoke shrinks every budget so a run takes seconds (the package test).
	smoke bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "permutes the app order and picks the probed candidates")
	searchSeed := flag.Int64("search-seed", 1, "core.Options.Seed of every search (held-out value: 2)")
	seconds := flag.Float64("seconds", 20, "measure whole passes over the workload until the next would end past this many seconds (at least one)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run and per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny budgets (seconds per run); for checking the harness, not for numbers")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	res, err := run(options{workload: w, seed: *seed, searchSeed: *searchSeed,
		seconds: *seconds, trace: *trace == 1, smoke: *smoke}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run executes one benchmark run and writes its human-readable report to out.
func run(o options, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "workload %s (%s): apps %s, seed %d, search seed %d, tv %v\n",
		o.workload.name, o.workload.why, strings.Join(o.workload.apps, ", "), o.seed, o.searchSeed, o.workload.tv)
	host, err := json.Marshal(hostInfo())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "host %s\n", host)
	if o.trace {
		return runTraced(o, out)
	}

	// setup_s sums each app's median set-up time over setupReps set-ups.
	perApp := make([][]float64, len(o.workload.apps))
	var preps []*prepared
	for i := 0; i < setupReps; i++ {
		secs, ps, err := setup(o, nil)
		if err != nil {
			return nil, err
		}
		for j, s := range secs {
			perApp[j] = append(perApp[j], s)
		}
		preps = ps
	}
	var setupS float64
	for j, secs := range perApp {
		setupS += median(secs)
		fmt.Fprintf(out, "setup %-18s %s s\n", o.workload.apps[j], floats(secs, "%.4f"))
	}
	if err := addReferences(preps); err != nil {
		return nil, err
	}

	order := rand.New(rand.NewSource(o.seed)).Perm(len(preps))
	var passes [][]appRun
	start := time.Now()
	for {
		t0 := time.Now()
		pass := runPass(o, preps, order, nil)
		passes = append(passes, pass)
		printPass(out, len(passes), pass)
		// A whole pass is the unit of work: start another only if it is
		// expected to end within the run's time.
		if o.smoke || time.Since(start)+time.Since(t0) > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}

	res := &result{Metrics: map[string]metric{}}
	var walls, cpus, rates []float64
	for _, pass := range passes {
		var wall, cpu float64
		var evals int
		for _, r := range pass {
			wall += r.wallS
			cpu += r.cpuS
			evals += r.evals
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		rates = append(rates, float64(evals)/wall)
	}
	consistent := tally(res, passes...)
	speedup, region := geomeans(passes[0])
	failedFrac := float64(res.Failed) / float64(res.Attempted)
	values := map[string]float64{
		"wall_s":            median(walls),
		"setup_s":           setupS,
		"cpu_s":             median(cpus),
		"evals_per_s":       median(rates),
		"peak_rss_mb":       peakRSSMB(),
		"speedup_ga":        speedup,
		"region_speedup_ga": region,
		"passed_frac":       1 - failedFrac,
		"failed_frac":       failedFrac,
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && consistent
	fmt.Fprintf(out, "%d passes; failed_frac %.4f (%d of %d apps); traces and speedups identical across passes: %v\n",
		len(passes), failedFrac, res.Failed, res.Attempted, consistent)
	for _, d := range append(endToEnd, printedOnly...) {
		fmt.Fprintf(out, "  %-18s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	return res, nil
}

// coreOptions are the §4 budgets, or the smoke budgets.
func coreOptions(o options) core.Options {
	opts := core.DefaultOptions()
	opts.Seed = o.searchSeed
	opts.GA.Parallelism = runtime.NumCPU()
	opts.TVCheck = o.workload.tv
	if o.smoke {
		opts.GA.Population = 8
		opts.GA.Generations = 2
		opts.GA.HillClimbBudget = 4
		opts.Replays = 3
		opts.OnlineRuns = 2
	}
	return opts
}

// prepared is one app after set-up: the optimizer and Prepared state that
// the output check and the layer probe reuse, and the interpreter's result.
type prepared struct {
	spec apps.Spec
	app  *core.App
	opt  *core.Optimizer
	p    *core.Prepared
	want uint64
}

// setup builds and prepares every app of the workload on a fresh optimizer
// and returns each app's wall-clock seconds. With sp set it also times the
// layer calls Prepare makes (the traced run's set-up probe).
func setup(o options, sp *setupProbe) ([]float64, []*prepared, error) {
	secs := make([]float64, 0, len(o.workload.apps))
	preps := make([]*prepared, 0, len(o.workload.apps))
	for _, name := range o.workload.apps {
		spec, ok := apps.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("no app %q", name)
		}
		runtime.GC()
		t0 := time.Now()
		app, err := apps.Build(spec)
		if err != nil {
			return nil, nil, err
		}
		opt := core.New(coreOptions(o))
		p, err := opt.Prepare(app)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if sp != nil {
			if err := sp.measure(spec); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		preps = append(preps, &prepared{spec: spec, app: app, opt: opt, p: p})
	}
	return secs, preps, nil
}

// addReferences runs every app once under the interpreter: the reference the
// installed winners' results are checked against.
func addReferences(preps []*prepared) error {
	for _, pr := range preps {
		proc := rt.NewProcess(pr.app.Prog, pr.app.RTConfig)
		env := interp.NewEnv(proc)
		ns := interp.NewNativeState(pr.app.NativeSeed)
		ns.Inputs = append([]int64(nil), pr.app.Inputs...)
		env.Natives = interp.BindNatives(pr.app.Prog, ns)
		env.MaxCycles = 50_000_000_000
		ret, err := env.Run()
		if err != nil {
			return fmt.Errorf("%s: interpreter reference run: %w", pr.spec.Name, err)
		}
		pr.want = ret
	}
	return nil
}

// appRun is one Optimize of one app.
type appRun struct {
	app       string
	wallS     float64
	cpuS      float64
	evals     int
	speedup   float64
	regionSpd float64
	digest    string
	keptBase  bool
	onlineMs  float64 // the output check's whole-program run of the installed image
	rep       *core.Report
	err       error
}

// runPass optimizes every app once, in order, each on a fresh optimizer (one
// replayopt run per app), and checks each installed image's output.
func runPass(o options, preps []*prepared, order []int, scope *obs.Scope) []appRun {
	var pass []appRun
	for _, i := range order {
		pr := preps[i]
		opts := coreOptions(o)
		opts.Obs = scope
		opt := core.New(opts)
		runtime.GC()
		cpu0 := cpuSeconds()
		t0 := time.Now()
		rep, err := opt.Optimize(pr.app)
		r := appRun{app: pr.spec.Name, wallS: time.Since(t0).Seconds(), cpuS: cpuSeconds() - cpu0, err: err}
		if err == nil {
			r.rep = rep
			r.evals = rep.SearchStats.Evaluations
			r.speedup = rep.SpeedupGA
			r.regionSpd = rep.RegionSpeedupGA
			r.keptBase = rep.KeptBaseline
			sum := sha256.Sum256([]byte(rep.Search.DecisionTrace()))
			r.digest = hex.EncodeToString(sum[:8])
			r.onlineMs, r.err = checkOutput(pr, rep)
		}
		pass = append(pass, r)
	}
	return pass
}

// checkOutput rebuilds the installed image from Report.Best (or takes the
// Android image when the baseline was kept), confirms it is the image the
// report's policy lock pins, runs the whole program on it and compares the
// result with the interpreter's.
func checkOutput(pr *prepared, rep *core.Report) (float64, error) {
	code := pr.p.Android
	if !rep.KeptBaseline {
		region, err := lir.Compile(pr.app.Prog, pr.p.Region.Methods, rep.Best, pr.p.TypeProf, pr.p.Analysis.Effects)
		if err != nil {
			return 0, fmt.Errorf("rebuilding the winner: %w", err)
		}
		if got := rtrace.HashString(machine.HashProgram(region)); got != rep.Lock.ImageHash {
			return 0, fmt.Errorf("rebuilt winner image %s, the policy lock pins %s", got, rep.Lock.ImageHash)
		}
		if code, err = pr.p.CompileRegion(rep.Best); err != nil {
			return 0, fmt.Errorf("rebuilding the winner: %w", err)
		}
	}
	_, x := pr.app.NewProcessAndExec(code)
	x.MaxCycles = 50_000_000_000
	t0 := time.Now()
	got, err := x.Call(pr.app.Prog.Entry, nil)
	ms := msSince(t0)
	if err != nil {
		return ms, fmt.Errorf("installed image: %w", err)
	}
	if got != pr.want {
		return ms, fmt.Errorf("installed image returned %d, the interpreter %d", int64(got), int64(pr.want))
	}
	return ms, nil
}

// tally counts attempts and failures over passes into res and reports
// whether every app produced the same decision-trace digest and speedups in
// every pass.
func tally(res *result, passes ...[]appRun) bool {
	consistent := true
	first := map[string]appRun{}
	for _, pass := range passes {
		for _, r := range pass {
			res.Attempted++
			if r.err != nil {
				res.Failed++
				continue
			}
			f, seen := first[r.app]
			if !seen {
				first[r.app] = r
				continue
			}
			if f.digest != r.digest || f.speedup != r.speedup || f.regionSpd != r.regionSpd {
				consistent = false
			}
		}
	}
	return consistent
}

func printPass(out io.Writer, n int, pass []appRun) {
	fmt.Fprintf(out, "pass %d\n", n)
	for _, r := range pass {
		if r.err != nil {
			fmt.Fprintf(out, "  %-18s FAILED after %.2f s: %v\n", r.app, r.wallS, r.err)
			continue
		}
		kept := ""
		if r.keptBase {
			kept = " (baseline kept)"
		}
		fmt.Fprintf(out, "  %-18s wall %7.3f s  cpu %7.3f s  evals %4d  speedup %.4fx  region %.4fx  trace %s%s\n",
			r.app, r.wallS, r.cpuS, r.evals, r.speedup, r.regionSpd, r.digest, kept)
	}
}

// geomeans returns the geometric means of the successful apps' speedups.
func geomeans(pass []appRun) (speedup, region float64) {
	var ls, lr float64
	n := 0
	for _, r := range pass {
		if r.err != nil {
			continue
		}
		ls += math.Log(r.speedup)
		lr += math.Log(r.regionSpd)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(ls / float64(n)), math.Exp(lr / float64(n))
}

type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Go: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The build embeds the commit when it is made inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile, as obs.Histogram computes it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func floats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
