// Command storelint inspects, verifies, and repairs content-addressed
// snapshot store files (the capture persistence format of DESIGN.md §10).
//
// Usage:
//
//	storelint store.cas              # stat: summary table + per-snapshot rows
//	storelint -verify store.cas      # exit 1 unless the store is healthy
//	storelint -repair store.cas      # rewrite, dropping damaged snapshots
//	storelint -json store.cas > store.json
//
// -json emits the machine-readable report (schema_version 1), strictly
// decoded against its schema before it is written, like salint's and
// tvlint's. -verify exits 1 when the scan finds damaged records, a torn
// tail, a lost index, or skipped snapshots; plain stat mode reports the same
// facts but exits 0 (a degraded store is still usable — every complete
// snapshot replays). The BENCH_store.json artifact is checked by benchlint,
// like every other benchmark artifact.
package main

import (
	"flag"
	"fmt"
	"os"

	"replayopt/internal/capture"
	"replayopt/internal/capture/castore"
	"replayopt/internal/schema"
)

func main() {
	verify := flag.Bool("verify", false, "exit 1 unless the store is fully healthy")
	repair := flag.Bool("repair", false, "rewrite the store keeping only recoverable snapshots")
	jsonOut := flag.Bool("json", false, "emit the machine-readable report instead of tables")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: storelint [-verify|-repair|-json] store.cas")
		os.Exit(2)
	}
	path := flag.Arg(0)

	if *repair {
		rs, err := castore.Repair(path, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "storelint: repair: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("repaired %s: kept %d snapshots (dropped %d), kept %d boot pages (dropped %d), %d -> %d bytes\n",
			path, rs.SnapshotsKept, rs.SnapshotsDropped, rs.BootPagesKept, rs.BootPagesDropped,
			rs.BytesBefore, rs.BytesAfter)
		return
	}

	f, err := castore.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "storelint: %v\n", err)
		os.Exit(1)
	}
	rep := castore.BuildReport(f, appLabel)

	if *jsonOut {
		data, err := schema.Encode(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "storelint: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
	} else {
		printReport(rep)
	}
	if *verify && !rep.Healthy() {
		os.Exit(1)
	}
}

// appLabel decodes a manifest's opaque metadata into its app name; castore
// itself treats metadata as bytes, only the capture layer knows the schema.
func appLabel(meta []byte) string {
	m, err := capture.DecodeSnapshotMeta(meta)
	if err != nil {
		return "(undecodable)"
	}
	return m.App
}

func printReport(rep *castore.Report) {
	fmt.Printf("%s: %d bytes, %d records (%d chunks, %d manifests, %d indexes)\n",
		rep.Path, rep.FileBytes, rep.Records, rep.Chunks, rep.Manifests, rep.Indexes)
	health := "healthy"
	if !rep.Healthy() {
		health = "DEGRADED"
	}
	fmt.Printf("%s: %d damaged records, %d torn-tail bytes, %d skipped snapshots", health,
		rep.Damaged, rep.TruncatedTailBytes, rep.SkippedSnapshots)
	if rep.NoIndex {
		fmt.Print(", NO INTACT INDEX (manifest-order fallback, boot table lost)")
	}
	fmt.Println()
	fmt.Printf("dedup: %.2fx (%d raw bytes referenced, %d stored after dedup+compression)\n",
		rep.DedupRatio, rep.ReferencedRawBytes, rep.StoredChunkBytes)
	if len(rep.Snapshots) > 0 {
		fmt.Printf("%-12s %-22s %8s %9s %s\n", "digest", "app", "pages", "raw MB", "state")
		for _, s := range rep.Snapshots {
			state := "complete"
			if !s.Complete {
				state = fmt.Sprintf("INCOMPLETE (%d chunks missing)", s.MissingChunks)
			}
			fmt.Printf("%-12s %-22s %8d %9.2f %s\n", s.Digest, s.App, s.Pages, s.RawMB, state)
		}
	}
}
