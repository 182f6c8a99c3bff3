// The BENCH_fleet.json artifact: what a fleetload sweep measured against a
// coordinator. Emitted by cmd/fleetload, strictly decoded and checked by
// cmd/benchlint, regression-gated in CI on cache-hit ratio and uploads/sec.

package fleet

import "fmt"

// BenchSchemaVersion versions BENCH_fleet.json. Bump on any field change
// (the CONTRIBUTING.md artifact-versioning rule).
const BenchSchemaVersion = 1

// BenchSweepRow is one concurrency step of the saturation sweep: offered
// load (concurrent uploading devices) vs achieved throughput. Reading the
// knee — the first row where uploads/sec stops scaling with concurrency —
// is how an operator sizes a coordinator (EXPERIMENTS.md).
type BenchSweepRow struct {
	Concurrency   int     `json:"concurrency"`
	Uploads       int     `json:"uploads"`
	UploadsPerSec float64 `json:"uploads_per_sec"`
}

// Bench is the BENCH_fleet.json document.
type Bench struct {
	SchemaVersion int    `json:"schema_version"`
	Benchmark     string `json:"benchmark"` // always "Fleet"

	Devices       int `json:"devices"`
	Apps          int `json:"apps"`
	DeviceClasses int `json:"device_classes"`
	Workers       int `json:"workers"`

	// Upload-side results.
	Uploads       int     `json:"uploads"`
	UploadsPerSec float64 `json:"uploads_per_sec"`
	UploadBytes   int64   `json:"upload_bytes"`
	// DedupFactor is raw referenced bytes over raw bytes actually written
	// across every merge: the fleet-scale Fig. 11 dedup quotient. With N
	// devices sharing an app's pages it approaches N for the shared set.
	DedupFactor float64 `json:"dedup_factor"`

	// Search-side results.
	SearchesRun   int     `json:"searches_run"`
	SearchesPerHr float64 `json:"searches_per_hour"`
	ResumedEvals  int     `json:"resumed_evals"`
	DroppedJobs   int     `json:"dropped_jobs"`
	FailedJobs    int     `json:"failed_jobs"`

	// Artifact-side results.
	ArtifactRequests int     `json:"artifact_requests"`
	ArtifactHits     int     `json:"artifact_hits"`
	CacheHitRatio    float64 `json:"cache_hit_ratio"`

	Sweep  []BenchSweepRow `json:"sweep"`
	WallMs float64         `json:"wall_ms"`
}

// Check enforces the artifact's invariants: the schema version, a load that
// ran (uploads, searches, and artifact fetches all happened), no dropped
// jobs, deduplicated searches within the app × class universe, a cache hit
// ratio in (0, 1], and sweep rows that sum to the upload total.
func (a *Bench) Check() error {
	if a.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", a.SchemaVersion, BenchSchemaVersion)
	}
	if a.Benchmark != "Fleet" {
		return fmt.Errorf("benchmark %q, want Fleet", a.Benchmark)
	}
	if a.Devices < 1 || a.Apps < 1 || a.DeviceClasses < 1 {
		return fmt.Errorf("devices/apps/device_classes %d/%d/%d: non-positive", a.Devices, a.Apps, a.DeviceClasses)
	}
	if a.Uploads < 1 || a.UploadsPerSec <= 0 {
		return fmt.Errorf("uploads %d at %.1f/sec: load did not run", a.Uploads, a.UploadsPerSec)
	}
	if a.Uploads > a.Devices {
		return fmt.Errorf("uploads %d exceed devices %d", a.Uploads, a.Devices)
	}
	if a.DedupFactor < 1 {
		return fmt.Errorf("dedup_factor %.2f below 1: shard merge lost bytes", a.DedupFactor)
	}
	if a.DroppedJobs != 0 {
		return fmt.Errorf("dropped_jobs %d: the coordinator lost work", a.DroppedJobs)
	}
	if a.SearchesRun < 1 {
		return fmt.Errorf("searches_run %d: uploads enqueued no searches", a.SearchesRun)
	}
	if a.SearchesRun+a.FailedJobs > a.Apps*a.DeviceClasses {
		return fmt.Errorf("searches_run+failed %d exceed the app×class universe %d (dedup broke)",
			a.SearchesRun+a.FailedJobs, a.Apps*a.DeviceClasses)
	}
	if a.ArtifactRequests < 1 {
		return fmt.Errorf("artifact_requests %d: no fetch phase ran", a.ArtifactRequests)
	}
	if a.ArtifactHits > a.ArtifactRequests {
		return fmt.Errorf("artifact_hits %d exceed requests %d", a.ArtifactHits, a.ArtifactRequests)
	}
	if a.CacheHitRatio <= 0 || a.CacheHitRatio > 1 {
		return fmt.Errorf("cache_hit_ratio %.3f outside (0, 1]", a.CacheHitRatio)
	}
	if len(a.Sweep) == 0 {
		return fmt.Errorf("no sweep rows")
	}
	total := 0
	for i, r := range a.Sweep {
		if r.Concurrency < 1 || r.Uploads < 1 || r.UploadsPerSec <= 0 {
			return fmt.Errorf("sweep[%d] (concurrency=%d): non-positive field", i, r.Concurrency)
		}
		total += r.Uploads
	}
	if total != a.Uploads {
		return fmt.Errorf("uploads %d but sweep rows sum to %d", a.Uploads, total)
	}
	return nil
}
