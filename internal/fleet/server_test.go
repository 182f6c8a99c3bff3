package fleet

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"replayopt/internal/lir"
	"replayopt/internal/lir/rtrace"
	"replayopt/internal/obs"
)

// bootServer builds and starts a coordinator over dir, wrapped in an
// httptest server, plus a fast-retry client against it.
func bootServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := NewServer(Config{
		Dir: dir, Workers: workers, Scale: testScale(),
		Apps: []string{testApp}, Scope: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	c := &Client{Base: hs.URL, Attempts: 3, Backoff: 5 * time.Millisecond}
	return s, hs, c
}

// waitJob polls until the job reaches state (or the deadline passes).
func waitJob(t *testing.T, s *Server, id, state string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j, ok := s.Jobs().Get(id); ok && j.State == state {
			return j
		}
		time.Sleep(10 * time.Millisecond)
	}
	j, _ := s.Jobs().Get(id)
	t.Fatalf("job %s never reached %s (now %+v)", id, state, j)
	return Job{}
}

// TestServerEndToEnd drives the full loop over HTTP: upload → search →
// artifact, with repeat fetches hitting the shared cache. After the drain,
// the server's span trace must read back through the one span-trace reader
// and hold the merge and search spans.
func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, hs, c := bootServer(t, dir, 1)
	defer hs.Close()
	drain := sync.OnceFunc(s.Drain)
	defer drain()
	col := &obs.Collect{}
	s.sc.AddSink(col)

	up, err := BuildDeviceStore(dir, testApp, "dev-1")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Upload(UploadRequest{App: testApp, DeviceID: "dev-1", DeviceClass: "classA", Store: up})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Snapshots != 1 || resp.JobID != JobID(testApp, "classA") {
		t.Fatalf("upload response %+v", resp)
	}

	waitJob(t, s, resp.JobID, JobDone, 2*time.Minute)
	art, err := c.Artifact(testApp, "classA", "")
	if err != nil {
		t.Fatalf("artifact after done job: %v", err)
	}
	if art.App != testApp || art.DeviceClass != "classA" || art.ImageFP == "" || art.TraceHash == "" {
		t.Fatalf("artifact %+v", art)
	}
	if !art.KeptBaseline && art.Lock == nil {
		t.Fatal("artifact carries no lock")
	}
	if art.Lock != nil {
		if drifts := rtrace.CheckLock(art.Lock); len(drifts) != 0 {
			t.Fatalf("served lock drifts against its own compiler: %+v", drifts)
		}
	}

	// A second device of the same class: upload dedups, artifact is a pure
	// cache hit — no second search.
	up2, _ := BuildDeviceStore(dir, testApp, "dev-2")
	resp2, err := c.Upload(UploadRequest{App: testApp, DeviceID: "dev-2", DeviceClass: "classA", Store: up2})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.JobState != JobDone {
		t.Fatalf("second device's job state %q, want done", resp2.JobState)
	}
	art2, err := c.Artifact(testApp, "classA", "")
	if err != nil {
		t.Fatal(err)
	}
	if art2.TraceHash != art.TraceHash {
		t.Fatal("cache served a different artifact")
	}
	if hits := s.sc.Counter("fleet.artifact_hits").Value(); hits < 2 {
		t.Fatalf("artifact_hits = %d, want >= 2", hits)
	}

	// An unknown device class misses until its own search runs.
	if _, err := c.Artifact(testApp, "classZ", ""); !errors.Is(err, ErrNotReady) {
		t.Fatalf("unseen class: err = %v, want ErrNotReady", err)
	}

	// Status reflects the finished job.
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].State != JobDone {
		t.Fatalf("status %+v", st)
	}

	drain()
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	for _, sd := range col.Spans() {
		w.SpanEnd(sd)
	}
	spans, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("server trace: %v", err)
	}
	counts := map[string]int{}
	for _, sd := range spans {
		counts[sd.Name]++
	}
	for _, name := range []string{"fleet.merge", "fleet.search"} {
		if counts[name] == 0 {
			t.Errorf("span %q missing from the server trace (got %v)", name, counts)
		}
	}
}

// TestArtifactLockDriftRefusedOnFetch tampers the cached artifact's lock so
// it references a pass the compiler does not have: the next fetch must be
// refused (409 → ErrRefused) and the job re-enqueued for a fresh search.
func TestArtifactLockDriftRefusedOnFetch(t *testing.T) {
	dir := t.TempDir()
	s, hs, c := bootServer(t, dir, 1)
	defer hs.Close()
	defer s.Drain()

	up, _ := BuildDeviceStore(dir, testApp, "dev-1")
	resp, err := c.Upload(UploadRequest{App: testApp, DeviceID: "dev-1", DeviceClass: "classA", Store: up})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, resp.JobID, JobDone, 2*time.Minute)
	art, err := c.Artifact(testApp, "classA", "")
	if err != nil {
		t.Fatal(err)
	}
	if art.Lock == nil {
		t.Skip("search kept the baseline; no lock to tamper")
	}

	// Simulate compiler drift by injecting an unknown pass into the cached
	// lock (equivalent to the registry dropping one).
	art.Lock.Passes = append(art.Lock.Passes, lir.PassSpec{Name: "no-such-pass"})
	if err := s.cache.Put(art); err != nil {
		t.Fatal(err)
	}
	_, err = c.Artifact(testApp, "classA", "")
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("drifted artifact: err = %v, want ErrRefused", err)
	}
	if got := s.sc.Counter("fleet.artifact_refused").Value(); got != 1 {
		t.Fatalf("fleet.artifact_refused = %d", got)
	}
	// The refusal re-enqueued the search; it eventually repairs the cache.
	waitJob(t, s, resp.JobID, JobDone, 2*time.Minute)
	fixed, err := c.Artifact(testApp, "classA", "")
	if err != nil {
		t.Fatalf("artifact after re-search: %v", err)
	}
	if fixed.TraceHash != art.TraceHash {
		t.Fatal("re-search made different decisions than the original")
	}
}

// TestImageFingerprintMismatchRefused: a device on a different code image
// must not receive the cached lock.
func TestImageFingerprintMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s, hs, c := bootServer(t, dir, 1)
	defer hs.Close()
	defer s.Drain()
	_, err := c.Artifact(testApp, "classA", "0123456789abcdef")
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

// TestDrainPersistsPendingWork: a drained coordinator parks its queue on
// disk; the next boot requeues and finishes it.
func TestDrainPersistsPendingWork(t *testing.T) {
	dir := t.TempDir()
	s, hs, c := bootServer(t, dir, 1)

	up, _ := BuildDeviceStore(dir, testApp, "dev-1")
	resp, err := c.Upload(UploadRequest{App: testApp, DeviceID: "dev-1", DeviceClass: "classA", Store: up})
	if err != nil {
		t.Fatal(err)
	}
	// Drain immediately: the search is either unstarted or interrupted at
	// its first batch boundary; either way the job must persist as pending
	// (or already done if the machine was absurdly fast).
	s.Drain()
	hs.Close()

	j, ok := s.Jobs().Get(resp.JobID)
	if !ok {
		t.Fatal("job lost across drain")
	}
	if j.State == JobDone {
		t.Skip("search finished before drain; nothing to resume")
	}
	if j.State != JobPending {
		t.Fatalf("drained job state %q, want pending", j.State)
	}

	s2, hs2, c2 := bootServer(t, dir, 1)
	defer hs2.Close()
	defer s2.Drain()
	waitJob(t, s2, resp.JobID, JobDone, 2*time.Minute)
	if _, err := c2.Artifact(testApp, "classA", ""); err != nil {
		t.Fatalf("artifact after resume: %v", err)
	}
	journal := filepath.Join(dir, "journals", resp.JobID+".jsonl")
	fj, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	if fj.Len() == 0 {
		t.Fatal("finished job left no journal")
	}
}
