package fleet

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"replayopt/internal/capture/castore"
	"replayopt/internal/ga"
	"replayopt/internal/obs"
)

// evalForTest fabricates a distinguishable evaluation for journal tests.
func evalForTest(fp uint64) ga.Evaluation {
	return ga.Evaluation{MeanMs: float64(fp) * 1.5, SizeBytes: int(fp), BinaryHash: fp * 31}
}

// statusServer always answers with the given status code.
func statusServer(code func() int) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(code())
	}))
}

// testScale keeps coordinator searches cheap enough for CI while still
// running the full Fig. 6 pipeline per job.
func testScale() SearchScale {
	return SearchScale{Population: 6, Generations: 2, HillClimbBudget: 4, Parallelism: 2}
}

const testApp = "FFT"

func TestShardIDStableAndTenantSeparated(t *testing.T) {
	if ShardID("FFT") != ShardID("FFT") {
		t.Fatal("shard id not stable")
	}
	if ShardID("FFT") == ShardID("SOR") {
		t.Fatal("different apps share a shard")
	}
	if JobID("FFT", "arm64-big") != "FFT@arm64-big" {
		t.Fatalf("JobID = %q", JobID("FFT", "arm64-big"))
	}
}

func TestShardMergeDedupsAcrossDevices(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(dir, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	up1, err := BuildDeviceStore(dir, testApp, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	up2, err := BuildDeviceStore(dir, testApp, "dev-2")
	if err != nil {
		t.Fatal(err)
	}
	ms1, err := ss.Merge(testApp, up1)
	if err != nil {
		t.Fatal(err)
	}
	if ms1.ChunksWritten == 0 || ms1.Snapshots != 1 {
		t.Fatalf("first merge wrote nothing: %+v", ms1)
	}
	ms2, err := ss.Merge(testApp, up2)
	if err != nil {
		t.Fatal(err)
	}
	// Device 2 shares the app-common pages (chunk-level dedup) and its boot
	// pages are already in the shard's table (skipped by address before any
	// chunk I/O); only its unique tail is new bytes.
	if ms2.ChunksReused < deviceAppPages {
		t.Fatalf("second merge reused %d chunks, want >= %d", ms2.ChunksReused, deviceAppPages)
	}
	if ms2.ChunksWritten != deviceUniquePags {
		t.Fatalf("second merge wrote %d chunks, want %d (the device-unique tail)", ms2.ChunksWritten, deviceUniquePags)
	}
	// Both snapshots live in one shard file and survive a scan.
	f, err := castore.Open(ss.ShardPath(testApp))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Snapshots()) != 2 {
		t.Fatalf("shard holds %d snapshots, want 2", len(f.Snapshots()))
	}
	for _, s := range f.Snapshots() {
		if !s.Complete {
			t.Fatal("merged snapshot incomplete")
		}
	}
	if len(f.Boot()) != deviceBootPages {
		t.Fatalf("boot table has %d pages, want %d", len(f.Boot()), deviceBootPages)
	}
	// Re-uploading an identical store must not grow the live set.
	if _, err := ss.Merge(testApp, up1); err != nil {
		t.Fatal(err)
	}
	g, _ := castore.Open(ss.ShardPath(testApp))
	if len(g.Snapshots()) != 2 {
		t.Fatalf("idempotent re-upload grew snapshots to %d", len(g.Snapshots()))
	}

	// A second app lands in a different shard with its own lock.
	if _, err := os.Stat(ss.ShardPath("SOR")); err == nil {
		t.Fatal("SOR shard exists before any SOR upload")
	}
	upB, err := BuildDeviceStore(dir, "SOR", "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Merge("SOR", upB); err != nil {
		t.Fatal(err)
	}
	if ss.ShardPath("SOR") == ss.ShardPath(testApp) {
		t.Fatal("apps share a shard file")
	}
}

func TestShardRepairObserved(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New()
	ss, err := NewShardedStore(dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	up, err := BuildDeviceStore(dir, testApp, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Merge(testApp, up); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Repair(testApp); err != nil {
		t.Fatal(err)
	}
	if got := sc.Counter("castore.repairs").Value(); got != 1 {
		t.Fatalf("castore.repairs = %d after shard repair, want 1", got)
	}
}

func TestJobStoreStateMachineAndRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	js, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	j, created, err := js.Ensure(testApp, "classA")
	if err != nil || !created || j.State != JobPending {
		t.Fatalf("Ensure: %+v created=%v err=%v", j, created, err)
	}
	if _, created, _ := js.Ensure(testApp, "classA"); created {
		t.Fatal("Ensure created a duplicate")
	}
	if _, err := js.Transition(j.ID, JobRunning, nil); err != nil {
		t.Fatal(err)
	}
	// Another job finishes normally.
	j2, _, _ := js.Ensure(testApp, "classB")
	js.Transition(j2.ID, JobRunning, nil)
	js.Transition(j2.ID, JobDone, func(j *Job) { j.Resumed = 7 })
	js.Close()

	// Recovery: the killed "running" job demotes to pending, the done job
	// stays done with its fields.
	js2, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := js2.Get(j.ID)
	if !ok || got.State != JobPending {
		t.Fatalf("running job recovered as %+v, want pending", got)
	}
	done, _ := js2.Get(j2.ID)
	if done.State != JobDone || done.Resumed != 7 {
		t.Fatalf("done job recovered as %+v", done)
	}
}

func TestJobStoreTornRecordRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	js, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := js.Ensure(testApp, "classA")
	js.Transition(j.ID, JobDone, nil)
	js.Close()

	// Tear the log mid-append: a partial JSON line with no newline, exactly
	// what a crash during write leaves behind.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"FFT@classA","state":"fai`)
	f.Close()

	js2, err := OpenJobStore(path)
	if err != nil {
		t.Fatalf("torn log failed to open: %v", err)
	}
	got, ok := js2.Get(j.ID)
	if !ok || got.State != JobDone {
		t.Fatalf("torn record corrupted state: %+v, want done", got)
	}
	// The recovered store must still accept appends, and the first one
	// must survive the next open instead of landing on the torn fragment.
	if _, err := js2.Transition(j.ID, JobPending, nil); err != nil {
		t.Fatal(err)
	}
	js2.Close()
	js3, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer js3.Close()
	if got, _ := js3.Get(j.ID); got.State != JobPending {
		t.Fatalf("post-recovery transition lost: state %q, want pending", got.State)
	}
}

func TestFileJournalTornTailDropsOneRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	fj, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for fp := uint64(1); fp <= 5; fp++ {
		fj.Record(fp, evalForTest(fp))
	}
	fj.Close()

	// Tear the last line in half.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	fj2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if fj2.Prior() != 4 {
		t.Fatalf("torn journal loaded %d records, want 4", fj2.Prior())
	}
	if _, ok := fj2.Lookup(5); ok {
		t.Fatal("torn record served")
	}
	if ev, ok := fj2.Lookup(3); !ok || ev.MeanMs != evalForTest(3).MeanMs {
		t.Fatalf("intact record lost: %+v ok=%v", ev, ok)
	}
	// The re-run records the torn evaluation again, and both records made
	// after recovery survive the next open.
	fj2.Record(5, evalForTest(5))
	fj2.Record(6, evalForTest(6))
	if fj2.Len() != 6 {
		t.Fatalf("Len = %d", fj2.Len())
	}
	fj2.Close()
	fj3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fj3.Close()
	if fj3.Prior() != 6 {
		t.Fatalf("reopened journal loaded %d records, want 6", fj3.Prior())
	}
	if ev, ok := fj3.Lookup(5); !ok || ev.MeanMs != evalForTest(5).MeanMs {
		t.Fatalf("re-recorded evaluation lost: %+v ok=%v", ev, ok)
	}
}

// TestClientRetryBackoffGivesUp points the client at a server that always
// fails: the bounded retry must stop after exactly Attempts tries and say
// so precisely.
func TestClientRetryBackoffGivesUp(t *testing.T) {
	hits := 0
	srv := statusServer(func() int { hits++; return 503 })
	defer srv.Close()
	c := &Client{Base: srv.URL, Attempts: 3, Backoff: time.Millisecond}
	_, err := c.Status()
	if err == nil {
		t.Fatal("client succeeded against a 503 server")
	}
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("err = %v, want ErrGaveUp", err)
	}
	if hits != 3 {
		t.Fatalf("server saw %d attempts, want 3", hits)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("imprecise give-up error: %v", err)
	}
}

// TestClientDoesNotRetry4xx: a 4xx is an answer, not a transient failure.
func TestClientDoesNotRetry4xx(t *testing.T) {
	hits := 0
	srv := statusServer(func() int { hits++; return 404 })
	defer srv.Close()
	c := &Client{Base: srv.URL, Attempts: 5, Backoff: time.Millisecond}
	_, err := c.Artifact(testApp, "classA", "")
	if !errors.Is(err, ErrNotReady) {
		t.Fatalf("err = %v, want ErrNotReady", err)
	}
	if hits != 1 {
		t.Fatalf("client retried a 404 %d times", hits)
	}
}
