// File-backed search checkpoints. A FileJournal implements ga.Journal over
// an append-only JSONL file: one line per finished evaluation, synced as it
// lands. Because the GA's decisions are a pure function of (seed,
// evaluation results) — the §3.6/§3.7 determinism contract — replaying the
// journal into a fresh search with the same seed reproduces the killed
// search's decision prefix byte for byte and spends compile/replay time
// only on work the dead coordinator never finished.

package fleet

import (
	"encoding/json"
	"fmt"
	"sync"

	"replayopt/internal/ga"
)

// journalRec is one persisted evaluation, keyed by configuration
// fingerprint (the memo-cache key).
type journalRec struct {
	FP         uint64    `json:"fp"`
	Outcome    uint8     `json:"outcome"`
	TimesMs    []float64 `json:"times_ms,omitempty"`
	MeanMs     float64   `json:"mean_ms"`
	SizeBytes  int       `json:"size_bytes"`
	BinaryHash uint64    `json:"binary_hash"`
}

// FileJournal is a crash-safe ga.Journal. Lookup is safe from concurrent
// evaluation workers; Record is called only from the search goroutine (the
// ga.Journal contract) but is locked anyway so misuse degrades to slow, not
// corrupt.
type FileJournal struct {
	mu    sync.RWMutex
	log   *jsonlLog
	evs   map[uint64]ga.Evaluation
	prior int
}

// OpenJournal loads the journal at path (creating it when absent). A torn
// final line (jsonl.go) is dropped, costing one evaluation re-run.
func OpenJournal(path string) (*FileJournal, error) {
	fj := &FileJournal{evs: map[uint64]ga.Evaluation{}}
	log, err := openJSONL(path, func(line []byte) {
		var r journalRec
		if err := json.Unmarshal(line, &r); err != nil {
			return
		}
		fj.evs[r.FP] = ga.Evaluation{
			Outcome: ga.Outcome(r.Outcome), TimesMs: r.TimesMs, MeanMs: r.MeanMs,
			SizeBytes: r.SizeBytes, BinaryHash: r.BinaryHash,
		}
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: journal: %w", err)
	}
	fj.log = log
	fj.prior = len(fj.evs)
	return fj, nil
}

// Prior is the number of evaluations loaded from disk — the work a resumed
// search will not repeat.
func (fj *FileJournal) Prior() int { return fj.prior }

// Len is the total number of journaled evaluations (loaded + recorded).
func (fj *FileJournal) Len() int {
	fj.mu.RLock()
	defer fj.mu.RUnlock()
	return len(fj.evs)
}

// Lookup implements ga.Journal.
func (fj *FileJournal) Lookup(fp uint64) (ga.Evaluation, bool) {
	fj.mu.RLock()
	defer fj.mu.RUnlock()
	ev, ok := fj.evs[fp]
	return ev, ok
}

// Record implements ga.Journal: append, sync, remember. A fingerprint the
// journal already holds (the replayed prefix of a resumed search) is not
// re-appended. Write errors are swallowed by design — the ga.Journal
// contract says a search never fails on a journal write; it only loses
// resumability for the affected entries.
func (fj *FileJournal) Record(fp uint64, ev ga.Evaluation) {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	if _, ok := fj.evs[fp]; ok {
		return
	}
	fj.evs[fp] = ev
	fj.log.append(journalRec{
		FP: fp, Outcome: uint8(ev.Outcome), TimesMs: ev.TimesMs, MeanMs: ev.MeanMs,
		SizeBytes: ev.SizeBytes, BinaryHash: ev.BinaryHash,
	})
}

// Close closes the journal file.
func (fj *FileJournal) Close() error { return fj.log.Close() }
