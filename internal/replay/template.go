// Warm replay workers: the §3.3 restore is a fixed cost per run, but its
// output — the post-break-free address space — depends only on the snapshot
// and the ASLR seed. A Template captures that space once, sealed; Workers
// clone it in O(regions) and reset dirty pages in O(pages written) between
// runs, amortizing the restore across an entire search.
package replay

import (
	"time"

	"replayopt/internal/capture"
	"replayopt/internal/mem"
	"replayopt/internal/obs"
)

// Template is one fully restored, sealed address space for a (snapshot,
// ASLR-seed) pair. It is immutable after construction and safe to clone from
// any number of goroutines concurrently.
type Template struct {
	Seed       int64
	Collisions int
	snap       *capture.Snapshot
	space      *mem.AddressSpace // sealed
	obs        *obs.Scope
}

// NewTemplate runs the cold restore once and seals the result. The cost is
// recorded under the same replay.restore_ms histogram as cold runs, so the
// clone-vs-restore comparison reads directly off obs, and each build counts
// under replay.template_builds.
func NewTemplate(store *capture.Store, snap *capture.Snapshot, aslrSeed int64) (*Template, error) {
	space, collisions, err := restore(store, snap, aslrSeed)
	if err != nil {
		return nil, err
	}
	space.Seal()
	if sc := store.Obs; sc != nil {
		sc.Counter("replay.template_builds").Add(1)
	}
	return &Template{
		Seed:       aslrSeed,
		Collisions: collisions,
		snap:       snap,
		space:      space,
		obs:        store.Obs,
	}, nil
}

// NewWorker clones the template into a private address space. Clones share
// every page frame with the template until first write.
func (t *Template) NewWorker() *Worker {
	var t0 time.Time
	if t.obs != nil {
		//detlint:allow time-now — observability-only clone timing, not replayed state
		t0 = time.Now()
	}
	w := &Worker{tmpl: t, space: t.space.Clone()}
	if t.obs != nil {
		t.obs.Histogram("replay.clone_ms").Observe(float64(time.Since(t0).Microseconds()) / 1000.0)
		t.obs.Counter("replay.warm_workers").Add(1)
	}
	return w
}

// Worker is a reusable warm replay context: one clone of a template's address
// space, reset between runs. A Worker is single-threaded — each worker
// goroutine owns its own — while the underlying template is shared.
type Worker struct {
	tmpl  *Template
	space *mem.AddressSpace
	dirty bool
	runs  int64
}

// Runs reports how many replays have reused this worker.
func (w *Worker) Runs() int64 { return w.runs }

// begin hands out the worker's space for one run. The reset is lazy — done
// here rather than at the end of the previous run — because callers (the
// verification map check in particular) read Result.Proc.Space after Run
// returns.
func (w *Worker) begin(sc *obs.Scope) *mem.AddressSpace {
	if w.dirty {
		var t0 time.Time
		if sc != nil {
			//detlint:allow time-now — observability-only reset timing, not replayed state
			t0 = time.Now()
		}
		w.space.Reset()
		if sc != nil {
			sc.Histogram("replay.reset_ms").Observe(float64(time.Since(t0).Microseconds()) / 1000.0)
		}
	}
	w.dirty = true
	w.runs++
	return w.space
}
