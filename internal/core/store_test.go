package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"replayopt/internal/capture"
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
