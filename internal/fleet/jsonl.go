// The append-only JSONL log under the job store and the search journals:
// one JSON record per line, each append synced before it returns. Recovery
// reads every newline-terminated line. Bytes after the last newline are a
// torn append from a killed writer, never acknowledged, and opening the log
// cuts them from the file: otherwise the next record would be written onto
// the end of the fragment and lost with it at the following open.

package fleet

import (
	"bytes"
	"encoding/json"
	"os"
)

// jsonlLog is an open append-only JSONL file.
type jsonlLog struct {
	f *os.File
}

// openJSONL hands every intact line of the log at path to each, in file
// order, then truncates a torn tail and opens the file for appending
// (creating it when absent). each decides what a line means; a line it
// cannot decode is its to skip.
func openJSONL(path string, each func(line []byte)) (*jsonlLog, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	intact := bytes.LastIndexByte(data, '\n') + 1
	for _, line := range bytes.Split(data[:intact], []byte{'\n'}) {
		if line = bytes.TrimSpace(line); len(line) > 0 {
			each(line)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if intact < len(data) {
		if err := f.Truncate(int64(intact)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &jsonlLog{f: f}, nil
}

// append writes v as one line and syncs. The sync is what makes a record
// durable: once append returns, a kill at any instant loses at most a
// later, unacknowledged record.
func (l *jsonlLog) append(v any) error {
	rec, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(append(rec, '\n')); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the log file.
func (l *jsonlLog) Close() error { return l.f.Close() }
