package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"replayopt/internal/aot"
	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/ga"
	"replayopt/internal/lir/tv"
	"replayopt/internal/obs"
	"replayopt/internal/profile"
	"replayopt/internal/replay"
	"replayopt/internal/sa/pts"
	"replayopt/internal/sa/vra"
)

// perLayer are the --trace 1 metrics, summed over the workload's apps unless
// they are quantiles or ratios. Names ending in _share are shares of
// candidate-evaluation time; lir.share and ga.pool_busy_frac are over search
// wall × workers. Each comment names the end-to-end metric it should move.
var perLayer = []metricDef{
	// core stage spans: attribute wall_s on every workload.
	{"core.prepare_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.rtrace_ms", "ms"},
	{"core.install_ms", "ms"},
	// set-up layers, timed around their public calls: move setup_s.
	{"minic.build_ms", "ms"},
	{"aot.compile_ms", "ms"},
	{"profile.online_ms", "ms"},
	{"profile.analyze_ms", "ms"},
	{"sa.vra_attach_ms", "ms"},
	{"sa.pts_attach_ms", "ms"},
	{"capture.ms", "ms"},
	{"capture.pages", "count"},
	{"verify.build_ms", "ms"},
	{"verify.vmap_size", "count"},
	// per-evaluation layers: move wall_s and evals_per_s.
	{"verify.check_ms_p50", "ms"},
	{"replay.restore_ms_p50", "ms"},
	{"replay.template_build_ms", "ms"},
	{"replay.clone_ms_p50", "ms"},
	{"replay.reset_ms_p50", "ms"},
	{"replay.runs", "count"},
	{"machine.exec_ms_p50", "ms"},
	{"machine.exec_ms_p99", "ms"},
	{"machine.mcycles_per_s", "Mcycles/s"},
	{"machine.online_run_ms", "ms"},
	{"lir.compile_ms_p50", "ms"},
	{"lir.compile_ms_p99", "ms"},
	{"lir.compile_ms_max", "ms"},
	{"lir.compile_s_total", "s"},
	{"lir.share", "frac"},
	{"lir.pass_fired_ratio", "frac"},
	{"lir.timeouts", "count"},
	{"tv.check_ms_p50", "ms"},
	{"tv.check_s_total", "s"},
	{"tv.share", "frac"},
	{"tv.rejects", "count"},
	{"ga.evaluations", "count"},
	{"ga.cache_hit_ratio", "frac"},
	{"ga.discard_ratio", "frac"},
	{"ga.eval_ms_p50", "ms"},
	{"ga.eval_ms_p99", "ms"},
	{"ga.pool_busy_frac", "frac"},
	// the layer probe's split of evaluation time.
	{"probe.candidates", "count"},
	{"probe.lir_share", "frac"},
	{"probe.machine_share", "frac"},
	{"probe.replay_share", "frac"},
	{"probe.verify_share", "frac"},
	{"probe.unexplained_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// probeCandidates bounds how many of each search's fresh evaluations the layer
// probe re-runs; --seed picks which.
func probeCandidates(o options) int {
	if o.smoke {
		return 4
	}
	return 40
}

// runTraced is the --trace 1 run: one untraced pass, one pass with an obs
// scope collecting the program's spans and metrics, then the layer probe.
func runTraced(o options, out io.Writer) (*result, error) {
	sp := &setupProbe{}
	_, preps, err := setup(o, sp)
	if err != nil {
		return nil, err
	}
	if err := addReferences(preps); err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(len(preps))
	plain := runPass(o, preps, order, nil)
	printPass(out, 1, plain)
	col := &obs.Collect{}
	scope := obs.New(col)
	traced := runPass(o, preps, order, scope)
	fmt.Fprintln(out, "traced:")
	printPass(out, 2, traced)

	res := &result{Metrics: map[string]metric{}}
	// The decision traces must not depend on observation.
	consistent := tally(res, plain, traced)
	probes := map[string]*probeStats{}
	for i, r := range traced {
		if r.err != nil {
			continue
		}
		ps, err := probe(o, preps[order[i]], r.rep, i)
		if err != nil {
			return nil, fmt.Errorf("%s: layer probe: %w", r.app, err)
		}
		probes[r.app] = ps
	}
	values := layerValues(o, sp, plain, traced, col.Spans(), scope.Registry().Snapshot(), probes, out)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && consistent
	fmt.Fprintf(out, "failed %d of %d; traces identical with tracing on and off: %v\n", res.Failed, res.Attempted, consistent)
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-26s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	return res, nil
}

// setupProbe times the layer calls core.Optimizer.Prepare makes, by making
// the same public calls from here.
type setupProbe struct {
	minicMs, aotMs, onlineMs, analyzeMs, vraMs, ptsMs float64
}

func (sp *setupProbe) measure(spec apps.Spec) error {
	t0 := time.Now()
	app, err := apps.Build(spec)
	sp.minicMs += msSince(t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	android, err := aot.Compile(app.Prog)
	sp.aotMs += msSince(t0)
	if err != nil {
		return err
	}
	prof := profile.NewProfile()
	_, x := app.NewProcessAndExec(android)
	x.SamplePeriod = profile.SamplePeriodCycles
	x.Sampler = prof
	x.MaxCycles = 50_000_000_000
	t0 = time.Now()
	_, err = x.Call(app.Prog.Entry, nil)
	sp.onlineMs += msSince(t0)
	if err != nil {
		return fmt.Errorf("online profiling run: %w", err)
	}
	t0 = time.Now()
	an := profile.Analyze(app.Prog)
	sp.analyzeMs += msSince(t0)
	if eff := an.Effects; eff != nil {
		t0 = time.Now()
		vra.Attach(eff)
		sp.vraMs += msSince(t0)
		t0 = time.Now()
		pts.Attach(eff)
		sp.ptsMs += msSince(t0)
	}
	return nil
}

// probeStats is the layer probe's record for one app. model splits the probed
// candidates' evaluation time by layer the way core's evaluator spends it:
// the compile (with tv when the workload validates), one warm replay plus a
// second for the ASLR cross-check, and the verification-map check.
type probeStats struct {
	candidates                     int
	tvMs, restoreMs, execMs, chkMs []float64
	tvRejects                      int
	cycles                         uint64
	execOKMs                       float64
	templateMs                     float64
	model                          split
}

// split is candidate-evaluation time by layer (ms).
type split struct{ lir, tv, machine, replay, verify float64 }

func (s split) total() float64 { return s.lir + s.tv + s.machine + s.replay + s.verify }

func (s split) plus(t split) split {
	return split{s.lir + t.lir, s.tv + t.tv, s.machine + t.machine, s.replay + t.replay, s.verify + t.verify}
}

// searchEstimate scales the probe's split of its sampled candidates to all of
// the search's fresh evaluations, adding the compile timeouts (never re-run)
// to lir at their span durations.
func searchEstimate(ps *probeStats, a *appSpans, evals int) split {
	f := float64(evals-a.timeouts) / float64(ps.candidates)
	m := ps.model
	return split{a.timeoutMs + m.lir*f, m.tv * f, m.machine * f, m.replay * f, m.verify * f}
}

// probe re-runs a seeded sample of the search's fresh candidates serially
// through the public layer calls, timing each: Prepared.CompileRegion without
// and with a tv checker, a cold replay.Run, a warm replay.Run on a worker of
// a freshly built template, and verify.Map.Check. Compile timeouts are not
// re-run; their cost is in the lir.compile spans.
func probe(o options, pr *prepared, rep *core.Report, k int) (*probeStats, error) {
	sc := obs.New()
	pr.opt.Store.Obs = sc
	defer func() { pr.opt.Store.Obs = nil }()
	restoreH, resetH := sc.Histogram("replay.restore_ms"), sc.Histogram("replay.reset_ms")

	ps := &probeStats{}
	t0 := time.Now()
	tmpl, err := replay.NewTemplate(pr.opt.Store, pr.p.Snapshot, 1)
	if err != nil {
		return nil, err
	}
	ps.templateMs = msSince(t0)
	worker := tmpl.NewWorker()

	var eligible []ga.EvalRecord
	for _, rec := range rep.Search.Trace {
		if rec.Eval.Outcome != ga.OutcomeCompilerTimeout {
			eligible = append(eligible, rec)
		}
	}
	rng := rand.New(rand.NewSource(o.seed*7919 + int64(k)))
	maxCycles := 12 * pr.p.AndroidCycles
	pick := rng.Perm(len(eligible))
	for _, i := range pick[:min(probeCandidates(o), len(pick))] {
		ps.candidates++
		cfg := eligible[i].Genome.Decode()
		t0 := time.Now()
		code, cerr := pr.p.CompileRegion(cfg)
		c := msSince(t0)
		ps.model.lir += c
		rejected := false
		if !tvUnsafe[pr.spec.Name] {
			tcfg := cfg
			tcfg.Check = tv.NewChecker(tv.Options{Reject: true, Strict: true})
			t0 = time.Now()
			_, terr := pr.p.CompileRegion(tcfg)
			d := max(0, msSince(t0)-c)
			ps.tvMs = append(ps.tvMs, d)
			var rej *tv.RejectError
			if rejected = errors.As(terr, &rej); rejected {
				ps.tvRejects++
			}
			if o.workload.tv {
				ps.model.tv += d
			}
		}
		if cerr != nil || (o.workload.tv && rejected) {
			continue
		}
		req := replay.Request{Snapshot: pr.p.Snapshot, Prog: pr.app.Prog, Tier: replay.TierCompiled,
			Code: code, MaxCycles: maxCycles, ASLRSeed: rng.Int63()}
		before := restoreH.Sum()
		// A cold run's failure is the candidate's own outcome, as the warm
		// run below reports it again; only its restore time is recorded.
		_, _ = replay.Run(pr.opt.Dev, pr.opt.Store, req)
		ps.restoreMs = append(ps.restoreMs, restoreH.Sum()-before)

		req.Worker = worker
		before = resetH.Sum()
		t0 = time.Now()
		res, rerr := replay.Run(pr.opt.Dev, pr.opt.Store, req)
		total := msSince(t0)
		reset := resetH.Sum() - before
		exec := total - reset
		ps.execMs = append(ps.execMs, exec)
		runs := 1.0
		if rerr == nil {
			ps.cycles += res.Cycles
			ps.execOKMs += exec
			t0 = time.Now()
			verr := pr.p.VMap.Check(res)
			v := msSince(t0)
			ps.chkMs = append(ps.chkMs, v)
			ps.model.verify += v
			if verr == nil && res.Cycles*4 <= maxCycles {
				runs = 2
			}
		}
		ps.model.machine += runs * exec
		ps.model.replay += runs * reset
	}
	return ps, nil
}

// appSpans aggregates one app's spans from the traced pass (ms).
type appSpans struct {
	prepare, search, rtrace, install, capture, verify float64
	compiles                                          []float64
	timeoutMs                                         float64
	timeouts                                          int
}

// spansByApp attributes every span to the app of its pipeline root span.
func spansByApp(spans []obs.SpanData) map[string]*appSpans {
	byID := make(map[uint64]obs.SpanData, len(spans))
	for _, sd := range spans {
		byID[sd.ID] = sd
	}
	appOf := func(sd obs.SpanData) string {
		for sd.Parent != 0 {
			p, ok := byID[sd.Parent]
			if !ok {
				return ""
			}
			sd = p
		}
		name, _ := sd.Attrs["app"].(string)
		return name
	}
	out := map[string]*appSpans{}
	for _, sd := range spans {
		app := appOf(sd)
		a := out[app]
		if a == nil {
			a = &appSpans{}
			out[app] = a
		}
		ms := float64(sd.DurUS) / 1000
		switch sd.Name {
		case "prepare":
			a.prepare += ms
		case "search":
			a.search += ms
		case "rtrace":
			a.rtrace += ms
		case "install":
			a.install += ms
		case "capture":
			a.capture += ms
		case "verify":
			a.verify += ms
		case "lir.compile":
			a.compiles = append(a.compiles, ms)
			if e, _ := sd.Attrs["error"].(string); strings.Contains(e, " timed out: ") {
				a.timeoutMs += ms
				a.timeouts++
			}
		}
	}
	return out
}

// layerValues computes every per-layer metric and prints the layer report:
// each app's shares, the workload's shares of evaluation time with the
// dominant layer, the part of ga.eval_ms the probe does not explain, and the
// tracing overhead.
func layerValues(o options, sp *setupProbe, plain, traced []appRun, spans []obs.SpanData,
	snap map[string]float64, probes map[string]*probeStats, out io.Writer) map[string]float64 {
	workers := float64(runtime.NumCPU())
	byApp := spansByApp(spans)
	v := map[string]float64{
		"minic.build_ms":     sp.minicMs,
		"aot.compile_ms":     sp.aotMs,
		"profile.online_ms":  sp.onlineMs,
		"profile.analyze_ms": sp.analyzeMs,
		"sa.vra_attach_ms":   sp.vraMs,
		"sa.pts_attach_ms":   sp.ptsMs,
	}

	var compiles []float64
	var searchCap float64
	var est split // evaluation time by layer, estimated over every fresh evaluation
	fmt.Fprintln(out, "by app: lir.share from spans; evaluation time by layer estimated from the probe:")
	for _, r := range traced {
		a := byApp[r.app]
		if a == nil || r.err != nil {
			continue
		}
		v["core.prepare_ms"] += a.prepare
		v["core.search_ms"] += a.search
		v["core.rtrace_ms"] += a.rtrace
		v["core.install_ms"] += a.install
		v["capture.ms"] += a.capture
		v["verify.build_ms"] += a.verify
		v["verify.vmap_size"] += float64(r.rep.VerifyMapSize)
		v["machine.online_run_ms"] += r.onlineMs
		v["lir.timeouts"] += float64(a.timeouts)
		compiles = append(compiles, a.compiles...)
		searchCap += a.search * workers
		line := fmt.Sprintf("  %-18s search %9.1f ms  lir.share %.3f  compile max %8.1f ms  timeouts %d",
			r.app, a.search, sum(a.compiles)/(a.search*workers), quantile(a.compiles, 1), a.timeouts)
		if ps := probes[r.app]; ps != nil && ps.candidates > 0 {
			e := searchEstimate(ps, a, r.evals)
			est = est.plus(e)
			line += "  " + shares(o, e)
		}
		fmt.Fprintln(out, line)
	}
	v["lir.compile_ms_p50"] = quantile(compiles, 0.5)
	v["lir.compile_ms_p99"] = quantile(compiles, 0.99)
	v["lir.compile_ms_max"] = quantile(compiles, 1)
	v["lir.compile_s_total"] = sum(compiles) / 1000
	if searchCap > 0 {
		v["lir.share"] = sum(compiles) / searchCap
		v["ga.pool_busy_frac"] = snap["ga.eval_ms.sum"] / searchCap
	}

	var fired, noop, discards float64
	causes := []string{}
	for key, n := range snap {
		switch {
		case strings.HasPrefix(key, "lir.pass_fired."):
			fired += n
		case strings.HasPrefix(key, "lir.pass_noop."):
			noop += n
		case strings.HasPrefix(key, "core.discard_causes."):
			discards += n
			causes = append(causes, fmt.Sprintf("%s=%.0f", strings.TrimPrefix(key, "core.discard_causes."), n))
		}
	}
	if fired+noop > 0 {
		v["lir.pass_fired_ratio"] = fired / (fired + noop)
	}
	evals := snap["ga.evaluations"]
	v["ga.evaluations"] = evals
	if evals > 0 {
		v["ga.discard_ratio"] = discards / evals
	}
	if c := snap["ga.considered"]; c > 0 {
		v["ga.cache_hit_ratio"] = snap["ga.cache_hits"] / c
	}
	v["ga.eval_ms_p50"] = snap["ga.eval_ms.p50"]
	v["ga.eval_ms_p99"] = snap["ga.eval_ms.p99"]
	v["capture.pages"] = snap["capture.pages_stored"]
	v["replay.clone_ms_p50"] = snap["replay.clone_ms.p50"]
	v["replay.reset_ms_p50"] = snap["replay.reset_ms.p50"]
	v["replay.runs"] = snap["replay.runs"]

	all := &probeStats{}
	for _, ps := range probes {
		all.candidates += ps.candidates
		all.tvMs = append(all.tvMs, ps.tvMs...)
		all.restoreMs = append(all.restoreMs, ps.restoreMs...)
		all.execMs = append(all.execMs, ps.execMs...)
		all.chkMs = append(all.chkMs, ps.chkMs...)
		all.tvRejects += ps.tvRejects
		all.cycles += ps.cycles
		all.execOKMs += ps.execOKMs
		all.templateMs += ps.templateMs
	}
	v["probe.candidates"] = float64(all.candidates)
	v["replay.restore_ms_p50"] = quantile(all.restoreMs, 0.5)
	v["replay.template_build_ms"] = all.templateMs
	v["machine.exec_ms_p50"] = quantile(all.execMs, 0.5)
	v["machine.exec_ms_p99"] = quantile(all.execMs, 0.99)
	if all.execOKMs > 0 {
		v["machine.mcycles_per_s"] = float64(all.cycles) / all.execOKMs / 1000
	}
	v["verify.check_ms_p50"] = quantile(all.chkMs, 0.5)
	v["tv.check_ms_p50"] = quantile(all.tvMs, 0.5)
	v["tv.check_s_total"] = sum(all.tvMs) / 1000
	v["tv.rejects"] = float64(all.tvRejects)
	if e := est.total(); e > 0 {
		v["probe.lir_share"] = est.lir / e
		v["tv.share"] = est.tv / e
		v["probe.machine_share"] = est.machine / e
		v["probe.replay_share"] = est.replay / e
		v["probe.verify_share"] = est.verify / e
	}
	if s := snap["ga.eval_ms.sum"]; s > 0 {
		v["probe.unexplained_frac"] = 1 - est.total()/s
	}
	var plainWall, tracedWall float64
	for i := range plain {
		plainWall += plain[i].wallS
		tracedWall += traced[i].wallS
	}
	v["trace.overhead_frac"] = tracedWall/plainWall - 1

	fmt.Fprintf(out, "workload %s: evaluation time by layer (probe of %d candidates): %s\n",
		o.workload.name, all.candidates, shares(o, est))
	fmt.Fprintf(out, "  ga.eval_ms not explained by the probe: %.3f; trace.overhead_frac %.4f\n",
		v["probe.unexplained_frac"], v["trace.overhead_frac"])
	sort.Strings(causes)
	fmt.Fprintf(out, "  discards by cause: %s\n", strings.Join(causes, " "))
	return v
}

// shares renders a split as shares of its total and names the dominant layer.
func shares(o options, s split) string {
	e := s.total()
	if e <= 0 {
		return "no evaluation time"
	}
	layers := []struct {
		name string
		ms   float64
	}{{"lir", s.lir}, {"lir/tv", s.tv}, {"machine", s.machine}, {"replay+mem", s.replay}, {"verify", s.verify}}
	var parts []string
	top := layers[0]
	for _, l := range layers {
		if l.name == "lir/tv" && !o.workload.tv {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.3f", l.name, l.ms/e))
		if l.ms > top.ms {
			top = l
		}
	}
	return strings.Join(parts, ", ") + "; dominant: " + top.name
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
