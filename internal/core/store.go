package core

// Snapshot-store persistence at the pipeline level (§3.2 step 6): the
// optimizer spools its capture store to device storage between online and
// offline sessions, and reloads it — lazily, integrity-checked — when an
// offline optimization session starts. Both directions run under a
// "store-integrity" span so traces show what the persistence layer did:
// bytes appended vs deduplicated on save, damaged records and skipped
// snapshots on load.

import (
	"fmt"

	"replayopt/internal/capture"
	"replayopt/internal/obs"
)

// PersistStore saves the optimizer's capture store to path in the
// content-addressed format, appending only chunks the file does not already
// hold, and returns the dedup accounting.
func (o *Optimizer) PersistStore(path string) (st capture.SaveStats, err error) {
	sp := o.Opts.Obs.Start("store.persist", obs.A("path", path))
	defer func() {
		if err != nil {
			sp.Attr("error", err.Error())
		}
		sp.End(
			obs.A("appended_bytes", st.AppendedBytes),
			obs.A("chunks_written", st.ChunksWritten),
			obs.A("chunks_reused", st.ChunksReused),
			obs.A("bytes_deduped", st.BytesReused),
		)
	}()
	st, err = o.Store.Persist(path)
	if err != nil {
		return st, fmt.Errorf("core: persist store: %w", err)
	}
	return st, nil
}

// LoadStore replaces the optimizer's capture store with one loaded from
// path. Snapshots load lazily — page contents are read, checksum-verified,
// and materialized on first replay access. Snapshots with damaged records
// are skipped rather than failing the load; the returned StoreInfo says how
// many.
func (o *Optimizer) LoadStore(path string) (info *capture.StoreInfo, err error) {
	sp := o.Opts.Obs.Start("store.load", obs.A("path", path))
	defer func() {
		if err != nil {
			sp.Attr("error", err.Error())
			sp.End()
			return
		}
		sp.End(
			obs.A("snapshots", info.Snapshots),
			obs.A("skipped_snapshots", info.SkippedSnapshots),
			obs.A("damaged_records", info.DamagedRecords),
			obs.A("truncated_tail_bytes", info.TruncatedTailBytes),
		)
	}()
	store, info, err := capture.LoadWithInfo(path, o.Opts.Obs)
	if err != nil {
		return nil, fmt.Errorf("core: load store: %w", err)
	}
	o.Store = store
	return info, nil
}
