// One job's search: the full Fig. 6 pipeline (core.Optimize) at a
// coordinator-chosen scale, checkpointed through a FileJournal and
// interruptible at evaluation-batch boundaries for graceful drain. The
// seed is derived from (app, device class), so the same job always runs
// the same search — the property that makes the journal a resume point and
// the artifact's trace hash reproducible.

package fleet

import (
	"fmt"
	"path/filepath"

	"replayopt/internal/core"
	"replayopt/internal/ga"
	"replayopt/internal/obs"
)

// SearchScale sizes a coordinator-run search. The zero value is replaced by
// DefaultScale.
type SearchScale struct {
	Population      int
	Generations     int
	HillClimbBudget int
	Parallelism     int
}

// DefaultScale is deliberately small: a fleet coordinator amortizes one
// search across thousands of devices, and CI boots real coordinators, so
// per-job wall clock matters more than squeezing the last percent out of
// each winner. Operators raise it via fleetd flags for production sweeps.
func DefaultScale() SearchScale {
	return SearchScale{Population: 8, Generations: 3, HillClimbBudget: 6, Parallelism: 2}
}

// SearchOutcome is what a finished (or interrupted) job search produced.
type SearchOutcome struct {
	Report *core.Report
	// Resumed is the number of evaluations served from the journal — work a
	// previous, killed run of this job already paid for.
	Resumed int
}

// RunSearch executes the job's search with checkpointing. interrupt (may be
// nil) is polled at batch boundaries; when it fires the search unwinds and
// RunSearch returns ga.ErrInterrupted with everything finished so far safely
// in the journal at journalDir/<jobID>.jsonl.
func RunSearch(job Job, app *core.App, journalDir string, scale SearchScale,
	interrupt func() bool, sc *obs.Scope) (out *SearchOutcome, err error) {
	if scale.Population == 0 {
		scale = DefaultScale()
	}
	fj, err := OpenJournal(filepath.Join(journalDir, job.ID+".jsonl"))
	if err != nil {
		return nil, err
	}
	defer fj.Close()

	opts := core.DefaultOptions()
	opts.Seed = ClassSeed(job.App, job.DeviceClass)
	opts.GA.Population = scale.Population
	opts.GA.Generations = scale.Generations
	opts.GA.HillClimbBudget = scale.HillClimbBudget
	opts.GA.Parallelism = scale.Parallelism
	opts.GA.Journal = fj
	opts.GA.Interrupt = interrupt
	opts.Obs = sc

	// core.Optimize does not know about interruption; the sentinel unwind
	// from the batch boundary is converted here, at the first frame that can
	// report it as a job-level outcome.
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, ga.RecoverInterrupt(r)
		}
	}()
	rep, err := core.New(opts).Optimize(app)
	if err != nil {
		return nil, fmt.Errorf("fleet: search %s: %w", job.ID, err)
	}
	return &SearchOutcome{Report: rep, Resumed: fj.Prior()}, nil
}

// ArtifactFromReport shapes a finished search into the cached artifact.
func ArtifactFromReport(job Job, imageFP string, out *SearchOutcome) *ArtifactResponse {
	rep := out.Report
	a := &ArtifactResponse{
		APIVersion:    APIVersion,
		App:           job.App,
		DeviceClass:   job.DeviceClass,
		ImageFP:       imageFP,
		TraceHash:     TraceHash(rep.Search),
		Evaluations:   rep.SearchStats.Evaluations,
		MeanMs:        rep.GARegionMs,
		AndroidMeanMs: rep.AndroidRegionMs,
		Speedup:       rep.RegionSpeedupGA,
		KeptBaseline:  rep.KeptBaseline,
	}
	if !rep.KeptBaseline {
		a.Lock = rep.Lock
	}
	return a
}
