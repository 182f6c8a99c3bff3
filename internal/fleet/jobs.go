// Crash-safe job state. One search job exists per (app × device class);
// its state machine is
//
//	pending ──claim──▶ running ──finish──▶ done
//	   ▲                  │ │
//	   │   drain/crash    │ └──error──▶ failed ──retry──▶ pending
//	   └──────────────────┘
//
// Persistence is an append-only JSONL log (jsonl.go): every transition
// appends the whole job record and syncs. Recovery replays the log — last
// record per job wins — and drops a torn final line (a coordinator killed
// mid-append) from the file.
// Jobs recovered in state "running" are demoted to pending: the search
// they were running checkpoints its evaluations in the journal, so the
// re-run resumes instead of repeating work.

package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Job states.
const (
	JobPending = "pending"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Job is one (app, device class) search.
type Job struct {
	ID          string `json:"id"`
	App         string `json:"app"`
	DeviceClass string `json:"device_class"`
	State       string `json:"state"`
	Attempts    int    `json:"attempts"`
	Error       string `json:"error,omitempty"`
	// Resumed counts journal-served evaluations on the last run — >0 means
	// a crash or drain was recovered without repeating work.
	Resumed int `json:"resumed,omitempty"`
}

// JobStore persists jobs to an append-only JSONL file.
type JobStore struct {
	mu   sync.Mutex
	log  *jsonlLog
	jobs map[string]*Job
}

// OpenJobStore loads (or creates) the job log at path, replaying every
// intact record and demoting interrupted "running" jobs to pending.
func OpenJobStore(path string) (*JobStore, error) {
	js := &JobStore{jobs: map[string]*Job{}}
	log, err := openJSONL(path, func(line []byte) {
		var j Job
		if err := json.Unmarshal(line, &j); err != nil || j.ID == "" {
			return // a corrupt or foreign record
		}
		js.jobs[j.ID] = &j
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: job log: %w", err)
	}
	for _, j := range js.jobs {
		if j.State == JobRunning {
			j.State = JobPending
		}
	}
	js.log = log
	return js, nil
}

// Close closes the log file.
func (js *JobStore) Close() error {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.log.Close()
}

// Get returns a copy of the job, if known.
func (js *JobStore) Get(id string) (Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// All returns copies of every job, sorted by ID for stable output.
func (js *JobStore) All() []Job {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]Job, 0, len(js.jobs))
	//detlint:allow map-range — sorted immediately below
	for _, j := range js.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Ensure registers the job for (app, deviceClass) if it does not exist yet,
// persisting the new pending record. It returns the job's current state and
// whether this call created it (the caller then owns enqueueing it).
func (js *JobStore) Ensure(app, deviceClass string) (Job, bool, error) {
	id := JobID(app, deviceClass)
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.jobs[id]; ok {
		return *j, false, nil
	}
	j := &Job{ID: id, App: app, DeviceClass: deviceClass, State: JobPending}
	if err := js.append(j); err != nil {
		return Job{}, false, err
	}
	js.jobs[id] = j
	return *j, true, nil
}

// Transition moves a job to state, applying mut (may be nil) under the
// lock, and persists the record before returning.
func (js *JobStore) Transition(id, state string, mut func(*Job)) (Job, error) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("fleet: unknown job %q", id)
	}
	j.State = state
	if mut != nil {
		mut(j)
	}
	if err := js.append(j); err != nil {
		return Job{}, err
	}
	return *j, nil
}

// append persists one record; called with the lock held. Once Transition
// returns, the transition survives a kill.
func (js *JobStore) append(j *Job) error {
	if err := js.log.append(j); err != nil {
		return fmt.Errorf("fleet: job log append: %w", err)
	}
	return nil
}
