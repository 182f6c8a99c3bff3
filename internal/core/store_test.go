package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"replayopt/internal/capture"
	"replayopt/internal/capture/castore"
	"replayopt/internal/mem"
	"replayopt/internal/obs"
)

// syntheticStore builds a store with hand-made snapshots (no pipeline run):
// two snapshots sharing most pages, the multi-capture shape dedup targets.
func syntheticStore() *capture.Store {
	store := capture.NewStore()
	pg := func(fill byte) []byte {
		p := make([]byte, mem.PageSize)
		for i := 0; i < len(p); i += 7 {
			p[i] = fill
		}
		return p
	}
	shared := map[mem.Addr][]byte{
		0x10000: pg(1), 0x11000: pg(2), 0x12000: pg(3),
	}
	mk := func(arg uint64, extra mem.Addr, fill byte) *capture.Snapshot {
		pages := map[mem.Addr][]byte{extra: pg(fill)}
		for a, d := range shared {
			pages[a] = d
		}
		return &capture.Snapshot{App: "synthetic", Args: []uint64{arg}, Pages: pages}
	}
	store.Snapshots = []*capture.Snapshot{mk(1, 0x20000, 9), mk(2, 0x21000, 8)}
	store.BootPages = map[mem.Addr][]byte{0x90000: pg(7)}
	return store
}

func TestPersistAndLoadStore(t *testing.T) {
	col := &obs.Collect{}
	sc := obs.New(col)
	opts := DefaultOptions()
	opts.Obs = sc
	opt := New(opts)
	opt.Store = syntheticStore()
	opt.Store.Obs = sc
	orig := opt.Store

	path := filepath.Join(t.TempDir(), "store.cas")
	st, err := opt.PersistStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Two snapshots share three of four pages each: dedup must bite.
	if st.ChunksReused == 0 || st.DedupRatio() <= 1.0 {
		t.Errorf("no dedup on overlapping snapshots: %+v", st)
	}

	info, err := opt.LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Store == orig {
		t.Error("LoadStore did not replace the store")
	}
	if opt.Store.Obs != sc {
		t.Error("loaded store lost the obs scope")
	}
	if info.Snapshots != 2 || info.SkippedSnapshots != 0 {
		t.Errorf("unexpected load info: %+v", info)
	}
	snap := opt.Store.Snapshots[0]
	if !snap.Lazy() {
		t.Error("loaded snapshot not lazy")
	}
	if err := snap.EnsurePages(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Pages[0x10000], orig.Snapshots[0].Pages[0x10000]) {
		t.Error("page contents diverged through persist/load")
	}

	// Both directions traced, and the counters flowed through the scope.
	seen := map[string]bool{}
	for _, sd := range readBack(t, col.Spans()) {
		seen[sd.Name] = true
	}
	if !seen["store.persist"] || !seen["store.load"] {
		t.Errorf("store spans missing from trace: %v", seen)
	}
	if sc.Counter("capture.persisted_bytes").Value() == 0 {
		t.Error("persisted_bytes counter not bumped")
	}
	if sc.Counter("capture.store_loads").Value() != 1 {
		t.Error("store_loads counter not bumped")
	}
}

// TestTemplateBuildFailsOnDamagedStore damages a page chunk of a lazily
// loaded snapshot before its first replay: building the two templates must
// fail with the page-materialization error wrapped, so prepare stops there
// instead of the search measuring the failure as a candidate outcome.
func TestTemplateBuildFailsOnDamagedStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.cas")
	if err := syntheticStore().Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := capture.Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A second load of the same file reads the same damaged chunk and
	// yields the error the template build must wrap.
	ref, err := capture.Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := castore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	off, length, ok := f.ChunkSpan(f.Snapshots()[0].Pages[0].Key)
	if !ok {
		t.Fatal("page chunk not indexed")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+length/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := ref.Snapshots[0].EnsurePages()
	if want == nil {
		t.Fatal("the damaged chunk materialized")
	}

	_, err = newTemplates(loaded, loaded.Snapshots[0])
	if err == nil {
		t.Fatal("templates built from a damaged store")
	}
	for e := err; e != nil; e = errors.Unwrap(e) {
		if e.Error() == want.Error() {
			return
		}
	}
	t.Errorf("template build error %q does not wrap the materialization error %q", err, want)
}
