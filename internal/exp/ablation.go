package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/device"
	"replayopt/internal/ga"
	"replayopt/internal/lir"
	"replayopt/internal/machine"
	"replayopt/internal/replay"
	"replayopt/internal/stats"
)

// Ablations for the design choices DESIGN.md §6 calls out.

// AblationCoW compares the paper's Copy-on-Write capture against the
// CERE-style eager first-touch copy (§6 related work), using each app's
// actual fault/CoW counts.
func AblationCoW(scale Scale, seed int64) (*Table, error) {
	t := &Table{
		Title:  "Ablation: Copy-on-Write capture vs CERE-style eager page copy (ms)",
		Header: []string{"app", "CoW capture", "eager copy", "ratio"},
	}
	for _, spec := range selectedApps(scale) {
		p, opt, err := prepareApp(spec.Name, seed, scale.Obs, scale.TVCheck)
		if err != nil {
			return nil, err
		}
		st := p.Snapshot.Stats
		cow := st.FaultCoWMs
		eager := opt.Dev.EagerCopyMillis(st.ReadFaults + st.WriteFaults)
		t.Rows = append(t.Rows, []string{spec.Name, f1(cow), f1(eager), f2(eager / cow)})
	}
	t.Notes = append(t.Notes, "paper §6: CERE's eager copy adds 20-250% runtime overhead; CoW keeps the copy in kernel space")
	return t, nil
}

// AblationFullSnapshot compares read-protection page discovery against a
// CRIU-style whole-address-space snapshot.
func AblationFullSnapshot(scale Scale, seed int64) (*Table, error) {
	t := &Table{
		Title:  "Ablation: selective capture vs CRIU-style full snapshot (MB)",
		Header: []string{"app", "selective", "full space", "ratio"},
	}
	for _, spec := range selectedApps(scale) {
		p, _, err := prepareApp(spec.Name, seed, scale.Obs, scale.TVCheck)
		if err != nil {
			return nil, err
		}
		sel := float64(p.Snapshot.Stats.ProgramBytes()+p.Snapshot.Stats.CommonBytes()) / (1 << 20)
		var full float64
		for _, r := range p.Snapshot.Layout {
			full += float64(r.Size()) / (1 << 20)
		}
		t.Rows = append(t.Rows, []string{spec.Name, f1(sel), f1(full), f2(full / sel)})
	}
	t.Notes = append(t.Notes, "paper §6: CRIU captures the whole application state — a poor match for hot-region replay")
	return t, nil
}

// AblationRandomSearch compares the GA against pure random search at the
// same evaluation budget (§2's motivation for intelligent search).
func AblationRandomSearch(scale Scale, seed int64, app string) (*Table, error) {
	p, _, err := prepareApp(app, seed, scale.Obs, scale.TVCheck)
	if err != nil {
		return nil, err
	}
	gaOpts := scale.GA
	gaOpts.BaselineAndroidMs = p.AndroidEval.MeanMs
	gaOpts.BaselineO3Ms = p.O3Eval.MeanMs
	res := ga.Search(rand.New(rand.NewSource(seed)), p, gaOpts)
	budget := len(res.Trace)

	rng := rand.New(rand.NewSource(seed + 99))
	bestRandom := 0.0
	for i := 0; i < budget; i++ {
		g := ga.RandomGenome(rng, gaOpts)
		ev := p.Evaluate(g.Decode())
		if ev.Outcome == ga.OutcomeCorrect {
			if sp := p.AndroidEval.MeanMs / ev.MeanMs; sp > bestRandom {
				bestRandom = sp
			}
		}
	}
	gaBest := p.AndroidEval.MeanMs / res.BestEval.MeanMs
	t := &Table{
		Title:  fmt.Sprintf("Ablation: GA vs random search on %s (equal budget of %d evaluations)", app, budget),
		Header: []string{"strategy", "best region speedup"},
		Rows: [][]string{
			{"genetic search", f2(gaBest)},
			{"random search", f2(bestRandom)},
		},
	}
	return t, nil
}

// AblationNoVerify counts the miscompiled binaries a verification-free
// search would have *preferred* over the true winner — the silent-corruption
// risk §3.4 eliminates.
func AblationNoVerify(scale Scale, seed int64, app string) (*Table, error) {
	p, opt, err := prepareApp(app, seed, scale.Obs, scale.TVCheck)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 7))
	bestCorrect := p.O3Eval.MeanMs
	wrongTotal, wrongFaster := 0, 0
	for i := 0; i < scale.RandomSeqs; i++ {
		g := ga.RandomGenome(rng, scale.GA)
		cfg := g.Decode()
		ev := p.Evaluate(cfg)
		switch ev.Outcome {
		case ga.OutcomeCorrect:
			if ev.MeanMs < bestCorrect {
				bestCorrect = ev.MeanMs
			}
		case ga.OutcomeWrongOutput:
			wrongTotal++
			// Time the wrong binary anyway (what a verification-free
			// system would do).
			code, err := p.CompileRegion(cfg)
			if err != nil {
				continue
			}
			res, err := replay.Run(opt.Dev, opt.Store, replay.Request{
				Snapshot: p.Snapshot, Prog: p.App.Prog,
				Tier: replay.TierCompiled, Code: code,
				MaxCycles: p.AndroidCycles * 12, ASLRSeed: int64(i) + 1,
			})
			if err != nil {
				continue
			}
			// Noise seeded by the image, as the evaluator seeds it, so the
			// row does not depend on how many replays ran before this one.
			nrng := rand.New(rand.NewSource(opt.Opts.Seed ^ int64(machine.HashProgram(code))))
			if device.ReplayMillisSeeded(res.Cycles, nrng) < bestCorrect {
				wrongFaster++
			}
		}
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: what a verification-free search would select on %s", app),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"wrong-output binaries sampled", fmt.Sprintf("%d", wrongTotal)},
			{"wrong binaries faster than the best correct one", fmt.Sprintf("%d", wrongFaster)},
		},
	}
	t.Notes = append(t.Notes, "any nonzero second row is a silently corrupted 'winner' without §3.4's verification map")
	return t, nil
}

// AblationGCCheckElim isolates the paper's custom post-unroll GC-check
// elimination pass on FFT (§3.5, §5.1).
func AblationGCCheckElim(seed int64) (*Table, error) {
	p, _, err := prepareApp("FFT", seed, nil, false)
	if err != nil {
		return nil, err
	}
	base := lir.O1()
	base.Passes = append(base.Passes,
		lir.PassSpec{Name: "licm"}, lir.PassSpec{Name: "bce"},
		lir.PassSpec{Name: "unroll", Params: map[string]int{"factor": 4}},
		lir.PassSpec{Name: "gvn"}, lir.PassSpec{Name: "dce"})
	with := base
	with.Passes = append(append([]lir.PassSpec(nil), base.Passes...), lir.PassSpec{Name: "gccheckelim"})

	evBase := p.Evaluate(base)
	evWith := p.Evaluate(with)
	t := &Table{
		Title:  "Ablation: post-unroll GC-check elimination on FFT (the paper's custom pass)",
		Header: []string{"pipeline", "region ms", "speedup vs Android"},
		Rows: [][]string{
			{"unroll only", fmt.Sprintf("%.4f", evBase.MeanMs), f2(p.AndroidEval.MeanMs / evBase.MeanMs)},
			{"unroll + gccheckelim", fmt.Sprintf("%.4f", evWith.MeanMs), f2(p.AndroidEval.MeanMs / evWith.MeanMs)},
		},
	}
	t.Notes = append(t.Notes, "unrolling duplicates the per-loop GC safepoint; the custom pass removes the duplicates (§3.5)")
	return t, nil
}

// AblationDevirt isolates profile-guided devirtualization on a virtual-call
// heavy app (§3.4's novel profile source).
func AblationDevirt(seed int64, app string) (*Table, error) {
	p, _, err := prepareApp(app, seed, nil, false)
	if err != nil {
		return nil, err
	}
	without := lir.O2()
	with := lir.O2()
	with.Passes = append(with.Passes, lir.PassSpec{Name: "devirt"}, lir.PassSpec{Name: "dce"})
	evW := p.Evaluate(without)
	evD := p.Evaluate(with)
	t := &Table{
		Title:  fmt.Sprintf("Ablation: replay-profile-guided devirtualization on %s", app),
		Header: []string{"pipeline", "region ms", "speedup vs Android"},
		Rows: [][]string{
			{"-O2", fmt.Sprintf("%.4f", evW.MeanMs), f2(p.AndroidEval.MeanMs / evW.MeanMs)},
			{"-O2 + devirt(profile)", fmt.Sprintf("%.4f", evD.MeanMs), f2(p.AndroidEval.MeanMs / evD.MeanMs)},
		},
	}
	t.Notes = append(t.Notes, "the type histogram comes from the §3.4 interpreted replay — no online instrumentation")
	return t, nil
}

// AblationCrossValidate measures the multi-capture extension (DESIGN.md §7):
// capture several held-out region entries per app, cross-validate the
// installed binary on each, and report the worst cross-input speedup next to
// the searched-input speedup. A "pass" row means the winner generalized.
func AblationCrossValidate(scale Scale, seed int64, appNames ...string) (*Table, error) {
	if len(appNames) == 0 {
		appNames = []string{"MaterialLife", "DroidFish", "Reversi Android"}
	}
	t := &Table{
		Title:  "Ablation: cross-input validation of each app's installed binary (multi-capture extension)",
		Header: []string{"app", "held-out", "passed", "searched speedup", "worst held-out speedup", "kept baseline"},
	}
	for _, name := range appNames {
		spec, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("exp: unknown app %q", name)
		}
		app, err := apps.Build(spec)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.GA = scale.GA
		opts.Seed = seed
		opts.Obs = scale.Obs
		opts.TVCheck = scale.TVCheck
		opt := core.New(opts)
		rep, cv, err := opt.OptimizeMulti(app, 3)
		if err != nil {
			return nil, fmt.Errorf("exp: cross-validate %s: %w", name, err)
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(cv.Checked),
			fmt.Sprint(cv.Passed),
			f2(rep.RegionSpeedupGA),
			f2(cv.MinSpeedup()),
			fmt.Sprint(rep.KeptBaseline),
		})
	}
	t.Notes = append(t.Notes,
		"held-out snapshots are later region entries from a fresh online run; each gets its own interpreted-replay verification map",
		"a winner failing any held-out input is discarded (baseline kept) — the paper's §6 input-generalization concern, enforced")
	return t, nil
}

// AblationTTestFitness isolates the §4 statistical machinery: given two
// binaries whose true speed differs by a known margin, how often does each
// decision rule pick the right one from 10 measurements — the paper's MAD
// outlier removal + Welch t-test versus a naive mean comparison, under
// replay noise (pinned cores) and under online noise (DVFS + contention)?
func AblationTTestFitness(seed int64) (*Table, error) {
	t := &Table{
		Title: "Ablation: t-test fitness (MAD + Welch, the §4 rule) vs naive mean comparison",
		Header: []string{"true diff", "replay mean-only", "replay t-test",
			"online mean-only", "online t-test", "online t-test undecided"},
	}
	dev := device.New(seed)
	const trials = 400
	const replays = 10
	const baseCycles = 2_840_000 // ≈1 ms at pinned max frequency
	measure := func(online bool, cycles uint64) []float64 {
		xs := make([]float64, replays)
		for i := range xs {
			if online {
				xs[i] = dev.OnlineMillis(cycles)
			} else {
				xs[i] = dev.ReplayMillis(cycles)
			}
		}
		return xs
	}
	// decide returns +1 if rule says A faster, -1 if B, 0 undecided.
	meanRule := func(a, b []float64) int {
		ma, mb := stats.Mean(a), stats.Mean(b)
		switch {
		case ma < mb:
			return 1
		case mb < ma:
			return -1
		}
		return 0
	}
	ttestRule := func(a, b []float64) int {
		ca := stats.RemoveOutliersMAD(a, 3)
		cb := stats.RemoveOutliersMAD(b, 3)
		res := stats.WelchTTest(ca, cb)
		if res.P > 0.05 {
			return 0 // statistically indistinguishable: size tiebreak in the GA
		}
		return meanRule(ca, cb)
	}
	for _, diff := range []float64{0.005, 0.01, 0.02, 0.05, 0.10} {
		slower := uint64(float64(baseCycles) * (1 + diff))
		var meanOK, tOK, tUndecided [2]int // [0] replay, [1] online
		for trial := 0; trial < trials; trial++ {
			for mode := 0; mode < 2; mode++ {
				online := mode == 1
				a := measure(online, baseCycles) // A is truly faster
				b := measure(online, slower)
				if meanRule(a, b) == 1 {
					meanOK[mode]++
				}
				switch ttestRule(a, b) {
				case 1:
					tOK[mode]++
				case 0:
					tUndecided[mode]++
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f%%", diff*100),
			pct(float64(meanOK[0]) / trials),
			pct(float64(tOK[0]) / trials),
			pct(float64(meanOK[1]) / trials),
			pct(float64(tOK[1]) / trials),
			pct(float64(tUndecided[1]) / trials),
		})
	}
	t.Notes = append(t.Notes,
		"t-test column counts confident correct picks; undecided pairs fall to the GA's binary-size tiebreak instead of a coin flip",
		"replay noise (<1%, pinned cores) decides small differences that online noise cannot — Fig. 3's argument at the fitness-function level")
	return t, nil
}

// discardSummary renders a Discards tally as stable "outcome:count" pairs.
func discardSummary(d map[string]int) string {
	if len(d) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(d))
	//detlint:allow map-range — keys are sorted before rendering
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, d[k])
	}
	return strings.Join(parts, " ")
}

// ScheduleTable quantifies the §3.7 policy from real search traces: per
// app, the total offline work the full search performed and how it fits in
// idle-charging windows. Pass a Fig7Result to reuse its searches, or nil to
// run fresh ones for appNames.
func ScheduleTable(res *Fig7Result, scale Scale, seed int64, appNames ...string) (*Table, error) {
	t := &Table{
		Title: "Replay scheduling under the idle-charging policy (§3.7)",
		Header: []string{"app", "evaluations", "cache hits", "replay min",
			"total offline min", "saved min", "nights", "share of first night", "discards"},
	}
	type item struct {
		name   string
		search *ga.Result
		dev    *device.Device
	}
	var items []item
	if res != nil {
		for _, row := range res.Rows {
			items = append(items, item{row.App, row.Report.Search, device.New(seed)})
		}
	} else {
		if len(appNames) == 0 {
			appNames = []string{"FFT", "MaterialLife", "DroidFish"}
		}
		for _, name := range appNames {
			spec, ok := apps.ByName(name)
			if !ok {
				return nil, fmt.Errorf("exp: unknown app %q", name)
			}
			app, err := apps.Build(spec)
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions()
			opts.GA = scale.GA
			opts.Seed = seed
			opts.Obs = scale.Obs
			opts.TVCheck = scale.TVCheck
			opt := core.New(opts)
			rep, err := opt.Optimize(app)
			if err != nil {
				return nil, fmt.Errorf("exp: schedule %s: %w", name, err)
			}
			items = append(items, item{name, rep.Search, opt.Dev})
		}
	}
	sopts := core.DefaultScheduleOptions()
	sopts.Seed = seed
	sopts.Obs = scale.Obs
	for _, it := range items {
		sched := core.ScheduleSearch(it.dev, it.search, sopts)
		share := "-"
		if sched.Nights == 1 {
			share = fmt.Sprintf("%.2f%%", sched.FirstNightFraction*100)
		}
		t.Rows = append(t.Rows, []string{
			it.name,
			fmt.Sprint(sched.Evaluations),
			fmt.Sprint(sched.CacheHits),
			f2(sched.ReplayMinutes),
			f2(sched.TotalMinutes),
			f2(sched.SavedMinutes),
			fmt.Sprint(sched.Nights),
			share,
			discardSummary(sched.Discards),
		})
	}
	t.Notes = append(t.Notes,
		"work proceeds only while the device is idle and charging; mornings interrupt it (§3.7)",
		"totals charge per-genome compiles (250 ms), every replay actually run, and the verification compare",
		"cache hits are candidate measurements the memo cache served; saved min is the replay+compile time they skipped",
		"discards lists failed evaluations by outcome; tv-reject ones were stopped statically and charged compile time only")
	return t, nil
}
