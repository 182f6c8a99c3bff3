// The coordinator itself: HTTP handlers in front, a bounded search-worker
// pool behind a persistent job queue. Every mutation is crash-safe (job
// log appends sync; artifacts rename into place; journals checkpoint per
// evaluation), so the server's lifecycle discipline is simple: boot
// requeues whatever the log says is unfinished, drain interrupts searches
// at batch boundaries and lets the journal carry the work forward.

package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"replayopt/internal/apps"
	"replayopt/internal/core"
	"replayopt/internal/ga"
	"replayopt/internal/obs"
)

// maxUploadBytes bounds one capture upload (a device's store is a few MB of
// compressed pages; 64 MB is generous headroom, not a DoS invitation).
const maxUploadBytes = 64 << 20

// maxJobAttempts is how many times a failing search is retried before the
// job parks in state failed.
const maxJobAttempts = 3

// Config configures a coordinator.
type Config struct {
	// Dir roots all server state: shards/, artifacts/, journals/, jobs.jsonl.
	Dir string
	// Workers is the search worker count (min 1).
	Workers int
	// Scale sizes each job's search; zero value = DefaultScale.
	Scale SearchScale
	// Apps restricts the served app registry; empty = every registry app.
	Apps []string
	// Scope observes the server (nil disables observation).
	Scope *obs.Scope
}

// Server is one fleet coordinator.
type Server struct {
	cfg    Config
	sc     *obs.Scope
	shards *ShardedStore
	jobs   *JobStore
	cache  *ArtifactCache

	apps     map[string]*core.App
	imageFPs map[string]string

	queueMu  sync.Mutex
	queue    chan string
	draining atomic.Bool
	running  sync.WaitGroup
}

// NewServer builds a coordinator rooted at cfg.Dir, recovering job state
// from a previous life: pending and interrupted jobs are requeued, done
// jobs keep serving from the artifact cache.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Scale.Population == 0 {
		cfg.Scale = DefaultScale()
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "journals"), 0o755); err != nil {
		return nil, fmt.Errorf("fleet: state dir: %w", err)
	}
	shards, err := NewShardedStore(cfg.Dir, cfg.Scope)
	if err != nil {
		return nil, err
	}
	cache, err := NewArtifactCache(filepath.Join(cfg.Dir, "artifacts"))
	if err != nil {
		return nil, err
	}
	jobs, err := OpenJobStore(filepath.Join(cfg.Dir, "jobs.jsonl"))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg, sc: cfg.Scope, shards: shards, jobs: jobs, cache: cache,
		apps: map[string]*core.App{}, imageFPs: map[string]string{},
		queue: make(chan string, 4096),
	}
	names := cfg.Apps
	if len(names) == 0 {
		for _, spec := range apps.All() {
			names = append(names, spec.Name)
		}
	}
	for _, name := range names {
		spec, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fleet: unknown app %q", name)
		}
		app, err := apps.Build(spec)
		if err != nil {
			return nil, err
		}
		fp, err := ImageFP(app)
		if err != nil {
			return nil, err
		}
		s.apps[name] = app
		s.imageFPs[name] = fp
	}
	// Requeue unfinished work from the previous life. OpenJobStore already
	// demoted interrupted "running" jobs to pending.
	for _, j := range jobs.All() {
		if j.State == JobPending {
			s.enqueue(j.ID)
		}
	}
	return s, nil
}

// Start launches the search workers.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.running.Add(1)
		go s.worker()
	}
}

// Drain stops the coordinator gracefully: new uploads still merge but no
// new search starts, in-flight searches are interrupted at their next batch
// boundary (their journals keep every finished evaluation), and Drain
// returns when the last worker has parked. Safe to call once.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.queueMu.Lock()
	close(s.queue)
	s.queueMu.Unlock()
	s.running.Wait()
	s.jobs.Close()
	s.shards.Close()
}

// Jobs exposes the job store (status handlers, tests).
func (s *Server) Jobs() *JobStore { return s.jobs }

// QueueDepth is the number of jobs waiting for a worker.
func (s *Server) QueueDepth() int { return len(s.queue) }

// enqueue adds a job ID to the work queue unless the server is draining
// (the job stays pending in the log; the next boot requeues it). The queue
// is sized far beyond the app-registry × device-class job universe, so a
// live server never drops: the send below cannot block for long, and a
// full queue would mean a misconfigured deployment, which the job log
// still protects — nothing is lost, only delayed to the next boot.
func (s *Server) enqueue(id string) {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	if s.draining.Load() {
		return
	}
	select {
	case s.queue <- id:
		s.sc.Gauge("fleet.queue_depth").Set(int64(len(s.queue)))
	default:
		// Queue saturated: leave the job pending on disk. It is picked up at
		// next boot; the status endpoint shows it as pending meanwhile.
		s.sc.Counter("fleet.queue_deferred").Add(1)
	}
}

func (s *Server) worker() {
	defer s.running.Done()
	for id := range s.queue {
		s.sc.Gauge("fleet.queue_depth").Set(int64(len(s.queue)))
		job, ok := s.jobs.Get(id)
		if !ok || job.State != JobPending {
			continue
		}
		s.runJob(job)
	}
}

func (s *Server) runJob(job Job) {
	app := s.apps[job.App]
	if app == nil {
		s.jobs.Transition(job.ID, JobFailed, func(j *Job) { j.Error = "app not in registry" })
		return
	}
	if _, err := s.jobs.Transition(job.ID, JobRunning, nil); err != nil {
		return
	}
	g := s.sc.Gauge("fleet.jobs_running")
	g.Add(1)
	defer g.Add(-1)

	sp := s.sc.Start("fleet.search", obs.A("job", job.ID))
	out, err := RunSearch(job, app, filepath.Join(s.cfg.Dir, "journals"), s.cfg.Scale,
		s.draining.Load, s.sc)
	switch {
	case errors.Is(err, ga.ErrInterrupted):
		// Drain: the journal holds every finished evaluation; park the job
		// pending so the next boot resumes it.
		s.jobs.Transition(job.ID, JobPending, nil)
		s.sc.Counter("fleet.searches_interrupted").Add(1)
		sp.End(obs.A("outcome", "interrupted"))
	case err != nil:
		s.sc.Counter("fleet.searches_failed").Add(1)
		sp.End(obs.A("outcome", "error"))
		s.jobs.Transition(job.ID, JobFailed, func(j *Job) {
			j.Attempts++
			j.Error = err.Error()
		})
		if job, ok := s.jobs.Get(job.ID); ok && job.Attempts < maxJobAttempts {
			s.jobs.Transition(job.ID, JobPending, nil)
			s.enqueue(job.ID)
		}
	default:
		art := ArtifactFromReport(job, s.imageFPs[job.App], out)
		if err := s.cache.Put(art); err != nil {
			sp.End(obs.A("outcome", "cache-error"))
			s.jobs.Transition(job.ID, JobFailed, func(j *Job) { j.Attempts++; j.Error = err.Error() })
			return
		}
		s.jobs.Transition(job.ID, JobDone, func(j *Job) {
			j.Error = ""
			j.Resumed = out.Resumed
		})
		s.sc.Counter("fleet.searches_done").Add(1)
		s.sc.Counter("fleet.search_resumed_evals").Add(int64(out.Resumed))
		sp.End(obs.A("outcome", "done"), obs.A("resumed", out.Resumed),
			obs.A("evaluations", out.Report.SearchStats.Evaluations))
	}
}

// Handler returns the coordinator's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/capture", s.handleUpload)
	mux.HandleFunc("GET /v1/artifact", s.handleArtifact)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{APIVersion: APIVersion, Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	sp := s.sc.Start("fleet.upload")
	defer sp.End()
	var req UploadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad upload: %v", err)
		return
	}
	if req.APIVersion > APIVersion {
		writeErr(w, http.StatusBadRequest, "api_version %d newer than server %d", req.APIVersion, APIVersion)
		return
	}
	if _, ok := s.apps[req.App]; !ok {
		writeErr(w, http.StatusNotFound, "unknown app %q", req.App)
		return
	}
	if req.DeviceClass == "" || len(req.Store) == 0 {
		writeErr(w, http.StatusBadRequest, "device_class and store are required")
		return
	}
	ms, err := s.shards.Merge(req.App, req.Store)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	job, created, err := s.jobs.Ensure(req.App, req.DeviceClass)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if created {
		s.enqueue(job.ID)
	}
	s.sc.Counter("fleet.uploads").Add(1)
	sp.Attr("app", req.App)
	writeJSON(w, http.StatusOK, UploadResponse{
		APIVersion: APIVersion, Shard: ms.Shard, Snapshots: ms.Snapshots,
		ChunksWritten: ms.ChunksWritten, ChunksReused: ms.ChunksReused,
		BytesReused: ms.BytesReused, RawWritten: ms.RawChunkBytesWritten,
		JobID: job.ID, JobState: job.State,
	})
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	sp := s.sc.Start("fleet.artifact")
	defer sp.End()
	app := r.URL.Query().Get("app")
	class := r.URL.Query().Get("class")
	fp, ok := s.imageFPs[app]
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown app %q", app)
		return
	}
	if want := r.URL.Query().Get("image_fp"); want != "" && want != fp {
		// The device runs a different code image than the server registry:
		// a cached lock would not apply. Refuse rather than approximate.
		s.sc.Counter("fleet.artifact_image_mismatch").Add(1)
		writeErr(w, http.StatusConflict, "image fingerprint mismatch: server %s, device %s", fp, want)
		return
	}
	art, drifts, err := s.cache.Get(app, fp, class)
	switch {
	case errors.Is(err, ErrArtifactNotFound):
		s.sc.Counter("fleet.artifact_misses").Add(1)
		state := "unknown"
		if j, ok := s.jobs.Get(JobID(app, class)); ok {
			state = j.State
		}
		sp.Attr("outcome", "miss")
		writeErr(w, http.StatusNotFound, "no artifact for (%s, %s): job %s", app, class, state)
	case errors.Is(err, ErrArtifactDrifted):
		// The lock-validation-on-fetch rule: a drifted artifact is refused
		// and its search re-enqueued against the current compiler.
		s.sc.Counter("fleet.artifact_refused").Add(1)
		sp.Attr("outcome", "refused")
		if _, ok := s.jobs.Get(JobID(app, class)); ok {
			if _, err := s.jobs.Transition(JobID(app, class), JobPending, nil); err == nil {
				s.enqueue(JobID(app, class))
			}
		}
		writeErr(w, http.StatusConflict, "artifact refused: %d static drift(s), first: [%s] %s",
			len(drifts), drifts[0].Kind, drifts[0].Detail)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	default:
		s.sc.Counter("fleet.artifact_hits").Add(1)
		sp.Attr("outcome", "hit")
		writeJSON(w, http.StatusOK, art)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	resp := StatusResponse{
		APIVersion: APIVersion,
		Draining:   s.draining.Load(),
		QueueDepth: len(s.queue),
		Workers:    s.cfg.Workers,
	}
	for _, j := range s.jobs.All() {
		resp.Jobs = append(resp.Jobs, StatusJob{
			ID: j.ID, App: j.App, DeviceClass: j.DeviceClass,
			State: j.State, Attempts: j.Attempts, Error: j.Error, Resumed: j.Resumed,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if reg := s.sc.Registry(); reg != nil {
		reg.WriteText(w)
		return
	}
	fmt.Fprintln(w, "# observation disabled")
}
