// Package castore is the content-addressed, append-only snapshot store
// behind capture persistence (§3.2 step 6, Fig. 11). Captured pages are
// chunked and keyed by SHA-256, so the boot-common pages Fig. 11 shows
// amortized across captures — and any page duplicated across snapshots —
// are stored exactly once; persisting another snapshot appends only its
// unseen chunks. Every record is length-prefixed and carries a CRC32C
// trailer, so corruption is detected per record: a damaged chunk or
// manifest costs only the snapshots that reference it, and a torn final
// record (a crash mid-save) truncates cleanly back to the last committed
// index. DESIGN.md §10 specifies the on-disk format and the recovery
// rules; cmd/storelint verifies, repairs, and reports on store files.
package castore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Format identification. A store file starts with the 4-byte magic followed
// by a single version byte; everything after is a record stream. Version 1
// was the gob+gzip blob that preceded this header and is no longer read;
// version 2 is the first content-addressed format.
const (
	Magic   = "RPCS"
	Version = 2
)

const headerLen = len(Magic) + 1

// Record types. Each record is [type:1][payload_len:4 LE][payload][crc32c:4 LE],
// with the CRC computed over the type byte, the length, and the payload.
const (
	recChunk    = byte('C') // one content-addressed page chunk
	recManifest = byte('M') // one snapshot's metadata + page table
	recIndex    = byte('I') // commit record: the live manifest set + boot map
)

// maxPayload bounds a record's claimed payload length during scanning; a
// larger claim is treated as tail corruption rather than trusted.
const maxPayload = 1 << 28

// crcTable is the Castagnoli polynomial, the CRC32C used by storage systems.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNotCastore reports that a file is not in the castore format (empty,
// foreign, or a version-1 gob+gzip blob).
var ErrNotCastore = errors.New("castore: not a castore file")

// Key is the SHA-256 content address of a chunk (or the digest identifying
// a manifest record).
type Key [sha256.Size]byte

// KeyOf returns the content address of data.
func KeyOf(data []byte) Key { return sha256.Sum256(data) }

// Short returns an abbreviated hex form for human-facing output.
func (k Key) Short() string { return hex.EncodeToString(k[:6]) }

// PageRef binds one page-aligned address to the chunk holding its contents.
type PageRef struct {
	Addr uint64
	Key  Key
}

// manifestRec is the gob payload of a manifest record: caller-opaque
// snapshot metadata plus the snapshot's program-specific page table.
type manifestRec struct {
	Meta  []byte
	Pages []PageRef
}

// indexRec is the gob payload of an index record — the commit point of a
// save. It lists the manifest digests of the live snapshots in order and
// the boot-common page table. Loaders obey the last intact index, so a
// crash before the index rolls the store back to its previous state.
type indexRec struct {
	Manifests []Key
	Boot      []PageRef
}

// chunkLoc locates one intact chunk record in the file.
type chunkLoc struct {
	off    int64 // offset of the record's type byte
	recLen int64 // full record length including header and CRC
	rawLen uint32
	stored uint32 // compressed payload bytes (payload minus key and rawLen)
}

// chunkHeaderLen is the fixed prefix of a chunk payload: key + raw length.
const chunkHeaderLen = sha256.Size + 4

// ScanStats summarizes one tolerant scan of a store file.
type ScanStats struct {
	FileBytes          int64
	Records            int
	Chunks             int
	Manifests          int
	Indexes            int
	DamagedRecords     int
	TruncatedTailBytes int64
	// ChunkRawBytes / ChunkStoredBytes cover unique intact chunks:
	// uncompressed page bytes vs bytes actually occupying the file.
	ChunkRawBytes    int64
	ChunkStoredBytes int64
}

// scanResult is everything a tolerant scan recovers from a file.
type scanResult struct {
	stats     ScanStats
	chunks    map[Key]chunkLoc
	manifests map[Key]*manifestRec
	order     []Key // manifest digests in record order
	index     *indexRec
	tailOff   int64 // offset just past the last parseable record
}

// readHeader validates the magic and version; the file position advances
// past the header.
func readHeader(f *os.File) error {
	hdr := make([]byte, headerLen)
	n, err := io.ReadFull(f, hdr)
	if err != nil {
		if n == 0 {
			return fmt.Errorf("%w: empty file", ErrNotCastore)
		}
		return fmt.Errorf("%w: short header", ErrNotCastore)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return ErrNotCastore
	}
	if hdr[len(Magic)] != Version {
		return fmt.Errorf("castore: unsupported format version %d (want %d)", hdr[len(Magic)], Version)
	}
	return nil
}

// scan walks the record stream tolerantly: CRC-verified records are
// indexed, damaged ones are counted and skipped by their claimed length,
// and a claim that runs past EOF ends the scan as a torn tail. scan never
// fails on content — only on I/O errors.
func scan(f *os.File, size int64) (*scanResult, error) {
	if _, err := f.Seek(int64(headerLen), io.SeekStart); err != nil {
		return nil, err
	}
	res := &scanResult{
		chunks:    map[Key]chunkLoc{},
		manifests: map[Key]*manifestRec{},
		tailOff:   int64(headerLen),
	}
	res.stats.FileBytes = size
	br := bufio.NewReaderSize(f, 1<<16)
	off := int64(headerLen)
	hdr := make([]byte, 5)
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				break // clean end of stream
			}
			// A partial header is a torn tail.
			res.stats.TruncatedTailBytes = size - off
			break
		}
		typ := hdr[0]
		plen := int64(binary.LittleEndian.Uint32(hdr[1:5]))
		recLen := 5 + plen + 4
		if plen > maxPayload || off+recLen > size {
			// The claimed length cannot be satisfied: tail corruption.
			res.stats.TruncatedTailBytes = size - off
			break
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		var tail [4]byte
		if _, err := io.ReadFull(br, payload); err != nil {
			res.stats.TruncatedTailBytes = size - off
			break
		}
		if _, err := io.ReadFull(br, tail[:]); err != nil {
			res.stats.TruncatedTailBytes = size - off
			break
		}
		res.stats.Records++
		crc := crc32.Update(crc32.Checksum(hdr, crcTable), crcTable, payload)
		if binary.LittleEndian.Uint32(tail[:]) != crc {
			res.stats.DamagedRecords++
		} else {
			switch typ {
			case recChunk:
				res.stats.Chunks++
				if len(payload) >= chunkHeaderLen {
					var k Key
					copy(k[:], payload[:sha256.Size])
					rawLen := binary.LittleEndian.Uint32(payload[sha256.Size:chunkHeaderLen])
					if _, dup := res.chunks[k]; !dup {
						res.chunks[k] = chunkLoc{
							off: off, recLen: recLen,
							rawLen: rawLen, stored: uint32(len(payload) - chunkHeaderLen),
						}
						res.stats.ChunkRawBytes += int64(rawLen)
						res.stats.ChunkStoredBytes += int64(len(payload) - chunkHeaderLen)
					}
				} else {
					res.stats.DamagedRecords++
				}
			case recManifest:
				res.stats.Manifests++
				var m manifestRec
				if raw, err := unpackMeta(payload); err != nil {
					res.stats.DamagedRecords++
				} else if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&m); err != nil {
					res.stats.DamagedRecords++
				} else {
					// The digest covers the stored (packed) payload — the same
					// bytes PutManifest hashes for its dedup check.
					d := KeyOf(payload)
					if _, dup := res.manifests[d]; !dup {
						res.manifests[d] = &m
						res.order = append(res.order, d)
					}
				}
			case recIndex:
				res.stats.Indexes++
				var ix indexRec
				if raw, err := unpackMeta(payload); err != nil {
					res.stats.DamagedRecords++
				} else if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&ix); err != nil {
					res.stats.DamagedRecords++
				} else {
					res.index = &ix // the latest intact index wins
				}
			default:
				// Unknown record type from a future writer: intact, skipped.
			}
		}
		off += recLen
		res.tailOff = off
	}
	return res, nil
}

// appendRecord encodes and writes one record, returning its full length.
func appendRecord(w io.Writer, typ byte, payload []byte) (int64, error) {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(hdr[:], crcTable), crcTable, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	for _, b := range [][]byte{hdr[:], payload, tail[:]} {
		if _, err := w.Write(b); err != nil {
			return 0, err
		}
	}
	return int64(5 + len(payload) + 4), nil
}

// compress deflates data (page contents compress well: captures are
// dominated by sparse heap pages). Chunks are written once and read many
// times, and each page compresses in its own stream — without the shared
// window a long gzip stream gets — so spend the better compression level
// here; dedup already removed the cheap redundancy.
func compress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// packMeta wraps a gob-encoded manifest or index payload for storage:
// [rawLen:4 LE][deflate bytes]. Metadata records are dominated by long page
// tables — repeated 32-byte keys and near-sequential addresses — that
// deflate by an order of magnitude.
func packMeta(raw []byte) ([]byte, error) {
	comp, err := compress(raw)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4, 4+len(comp))
	binary.LittleEndian.PutUint32(out, uint32(len(raw)))
	return append(out, comp...), nil
}

// unpackMeta reverses packMeta.
func unpackMeta(payload []byte) ([]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("castore: metadata payload too short")
	}
	rawLen := binary.LittleEndian.Uint32(payload)
	if rawLen > maxPayload {
		return nil, fmt.Errorf("castore: metadata claims %d raw bytes", rawLen)
	}
	return decompress(payload[4:], rawLen)
}

// decompress inflates a chunk body back to its raw bytes.
func decompress(data []byte, rawLen uint32) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(data))
	defer zr.Close()
	out := make([]byte, 0, rawLen)
	buf := bytes.NewBuffer(out)
	if _, err := io.Copy(buf, io.LimitReader(zr, int64(rawLen)+1)); err != nil {
		return nil, err
	}
	if uint32(buf.Len()) != rawLen {
		return nil, fmt.Errorf("castore: chunk inflated to %d bytes, want %d", buf.Len(), rawLen)
	}
	return buf.Bytes(), nil
}
