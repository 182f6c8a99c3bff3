package capture

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"

	"replayopt/internal/capture/castore"
	"replayopt/internal/dex"
	"replayopt/internal/mem"
	"replayopt/internal/obs"
)

// Persistence: snapshots are spooled to the device's storage (§3.2 step 6)
// and reloaded for offline replay sessions. The format is the
// content-addressed castore: pages are chunked and keyed by SHA-256 so
// boot-common and cross-snapshot duplicates are stored once, saves append
// only unseen chunks, every record carries a CRC32C trailer, and loads are
// lazy — page contents stay on disk until first replay access. DESIGN.md
// §10 specifies the format.

// SaveStats re-exports the castore dedup accounting so persistence callers
// need not import the storage layer.
type SaveStats = castore.SaveStats

// SnapshotMeta is the gob-encoded manifest metadata of one snapshot:
// everything except page contents, which live in content-addressed chunks.
type SnapshotMeta struct {
	App         string
	Root        dex.MethodID
	Args        []uint64
	Seed        uint64
	Layout      []mem.Region
	CommonPages []mem.Addr
	FileMaps    []mem.Region
	Stats       Stats
}

// StoreInfo reports what a Load recovered (and skipped) from a store file.
type StoreInfo struct {
	// Snapshots actually loaded.
	Snapshots int
	// SkippedSnapshots were referenced by the store's index but had a
	// damaged or missing manifest or chunk.
	SkippedSnapshots int
	// DamagedRecords and TruncatedTailBytes come from the integrity scan.
	DamagedRecords     int
	TruncatedTailBytes int64
}

// Save writes the store to path in the content-addressed format, appending
// only chunks and manifests the file does not already hold.
func (s *Store) Save(path string) error {
	_, err := s.Persist(path)
	return err
}

// Persist is Save with the dedup accounting: how many chunks were appended
// vs already present, and how many bytes actually hit storage (the Fig. 11
// budget). An absent or empty path gets a fresh store; any other file that
// is not a castore store is left as it was and the error wraps
// castore.ErrNotCastore.
func (s *Store) Persist(path string) (castore.SaveStats, error) {
	// Lazily loaded state must be materialized before it can be re-chunked
	// (dedup then makes re-persisting it to the same file a near-no-op).
	for _, sn := range s.Snapshots {
		if err := sn.EnsurePages(); err != nil {
			return castore.SaveStats{}, fmt.Errorf("capture: save: %w", err)
		}
	}
	if err := s.EnsureBoot(); err != nil {
		return castore.SaveStats{}, fmt.Errorf("capture: save: %w", err)
	}

	w, err := castore.OpenWriter(path)
	if err != nil {
		return castore.SaveStats{}, fmt.Errorf("capture: save: %w", err)
	}
	defer w.Close()

	putPages := func(pages map[mem.Addr][]byte) ([]castore.PageRef, error) {
		addrs := make([]mem.Addr, 0, len(pages))
		for pa := range pages {
			addrs = append(addrs, pa)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		refs := make([]castore.PageRef, 0, len(addrs))
		for _, pa := range addrs {
			k, _, err := w.PutChunk(pages[pa])
			if err != nil {
				return nil, err
			}
			refs = append(refs, castore.PageRef{Addr: uint64(pa), Key: k})
		}
		return refs, nil
	}

	digests := make([]castore.Key, 0, len(s.Snapshots))
	for _, sn := range s.Snapshots {
		refs, err := putPages(sn.Pages)
		if err != nil {
			return w.Stats(), fmt.Errorf("capture: save: %w", err)
		}
		meta, err := encodeMeta(sn)
		if err != nil {
			return w.Stats(), fmt.Errorf("capture: save: %w", err)
		}
		d, _, err := w.PutManifest(meta, refs)
		if err != nil {
			return w.Stats(), fmt.Errorf("capture: save: %w", err)
		}
		digests = append(digests, d)
	}
	bootRefs, err := putPages(s.BootPages)
	if err != nil {
		return w.Stats(), fmt.Errorf("capture: save: %w", err)
	}
	// Carry forward what other sessions committed: a fresh run persisting
	// into a shared file must not orphan earlier runs' snapshots. Prior
	// manifests this store owns are different — dropping one from
	// s.Snapshots is a discard, and omitting it here is what enacts it.
	live := make(map[castore.Key]bool, len(digests))
	for _, d := range digests {
		live[d] = true
	}
	commit := make([]castore.Key, 0, len(digests))
	for _, d := range w.PriorManifests() {
		if !live[d] && !s.ownManifests[d] && w.HasManifest(d) {
			commit = append(commit, d)
			live[d] = true
		}
	}
	commit = append(commit, digests...)
	// Union the boot table the same way (this session wins on a shared
	// address): preserved snapshots still need their boot pages to replay.
	bootAddrs := make(map[uint64]bool, len(bootRefs))
	for _, r := range bootRefs {
		bootAddrs[r.Addr] = true
	}
	for _, r := range w.PriorBoot() {
		if !bootAddrs[r.Addr] && w.HasChunk(r.Key) {
			bootRefs = append(bootRefs, r)
			bootAddrs[r.Addr] = true
		}
	}
	sort.Slice(bootRefs, func(i, j int) bool { return bootRefs[i].Addr < bootRefs[j].Addr })
	// The index is the commit point: a crash before this record leaves the
	// previous committed state intact.
	if err := w.PutIndex(commit, bootRefs); err != nil {
		return w.Stats(), fmt.Errorf("capture: save: %w", err)
	}
	if err := w.Close(); err != nil {
		return w.Stats(), fmt.Errorf("capture: save: %w", err)
	}
	if s.ownManifests == nil {
		s.ownManifests = make(map[castore.Key]bool, len(digests))
	}
	for _, d := range digests {
		s.ownManifests[d] = true
	}
	st := w.Stats()
	if sc := s.Obs; sc != nil {
		// The Fig. 11 budget: bytes actually hitting device storage.
		sc.Counter("capture.persisted_bytes").Add(st.AppendedBytes)
		sc.Counter("capture.persisted_stores").Add(1)
		sc.Counter("capture.store_chunks_written").Add(int64(st.ChunksWritten))
		sc.Counter("capture.store_chunks_reused").Add(int64(st.ChunksReused))
		sc.Counter("capture.store_bytes_deduped").Add(st.BytesReused)
	}
	return st, nil
}

func encodeMeta(sn *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&SnapshotMeta{
		App: sn.App, Root: sn.Root, Args: sn.Args, Seed: sn.Seed,
		Layout: sn.Layout, CommonPages: sn.CommonPages, FileMaps: sn.FileMaps,
		Stats: sn.Stats,
	})
	return buf.Bytes(), err
}

// DecodeSnapshotMeta decodes a castore manifest's opaque metadata
// (cmd/storelint uses it to label snapshots).
func DecodeSnapshotMeta(meta []byte) (*SnapshotMeta, error) {
	var m SnapshotMeta
	if err := gob.NewDecoder(bytes.NewReader(meta)).Decode(&m); err != nil {
		return nil, fmt.Errorf("capture: decode snapshot meta: %w", err)
	}
	return &m, nil
}

// Load reads a store written by Save; a file in any other format fails with
// an error wrapping castore.ErrNotCastore. The scope (nil is fine) rides the
// returned store so reloaded stores keep counting capture and replay
// metrics — persisted bytes, lazy page loads, replay runs.
func Load(path string, sc *obs.Scope) (*Store, error) {
	store, _, err := LoadWithInfo(path, sc)
	return store, err
}

// LoadWithInfo is Load plus integrity accounting: damaged records, skipped
// snapshots, and torn-tail bytes from the scan. The store opens lazily:
// manifests and the boot page table are read now, page contents stay on
// disk until a replay's first access materializes them (the mem lazy-frame
// machinery then maps them zero-copy).
func LoadWithInfo(path string, sc *obs.Scope) (*Store, *StoreInfo, error) {
	f, err := castore.Open(path)
	if errors.Is(err, castore.ErrNotCastore) {
		return nil, nil, fmt.Errorf("capture: load %s: %w", path, err)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("capture: load: %w", err)
	}
	info := &StoreInfo{
		SkippedSnapshots:   f.SkippedSnapshots,
		DamagedRecords:     f.Scan.DamagedRecords,
		TruncatedTailBytes: f.Scan.TruncatedTailBytes,
	}
	// One shared fetch counts every lazily materialized page.
	fetch := func(refs []castore.PageRef) (map[uint64][]byte, error) {
		raw, err := f.ReadChunks(refs)
		if err == nil && sc != nil {
			sc.Counter("capture.lazy_pages_loaded").Add(int64(len(raw)))
		}
		return raw, err
	}
	out := NewStore()
	out.Obs = sc
	out.ownManifests = map[castore.Key]bool{}
	for _, snap := range f.Snapshots() {
		if !snap.Complete {
			// Per-record corruption recovery: this snapshot lost a chunk or
			// its manifest; the rest of the store stays replayable.
			continue
		}
		m, err := DecodeSnapshotMeta(snap.Meta)
		if err != nil {
			info.SkippedSnapshots++
			continue
		}
		out.ownManifests[snap.Digest] = true
		out.Snapshots = append(out.Snapshots, &Snapshot{
			App: m.App, Root: m.Root, Args: m.Args, Seed: m.Seed,
			Layout: m.Layout, CommonPages: m.CommonPages, FileMaps: m.FileMaps,
			Stats: m.Stats,
			refs:  snap.Pages,
			fetch: fetch,
		})
	}
	info.Snapshots = len(out.Snapshots)
	if boot := f.Boot(); len(boot) > 0 {
		out.bootRefs = boot
		out.bootFetch = fetch
	}
	if sc != nil {
		sc.Counter("capture.store_loads").Add(1)
		sc.Counter("capture.store_damaged_records").Add(int64(info.DamagedRecords))
		sc.Counter("capture.store_snapshots_skipped").Add(int64(info.SkippedSnapshots))
		sc.Counter("capture.store_truncated_bytes").Add(info.TruncatedTailBytes)
	}
	return out, info, nil
}

// DiskSize reports the size of a saved store.
func DiskSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
