// Command fleetload simulates a device fleet against a running fleetd: N
// synthetic devices upload captures in a rising-concurrency sweep (the
// saturation curve), wait for the coordinator's searches, then fetch their
// artifacts — measuring uploads/sec, the fleet-scale dedup factor, cache
// hit ratio, and searches/hour. Results land in BENCH_fleet.json, checked
// against its schema before it is written (see EXPERIMENTS.md for how to
// read the sweep's saturation knee).
//
// Usage:
//
//	fleetload -server http://127.0.0.1:8347 [-devices 1000] [-apps FFT,SOR]
//	          [-classes 2] [-sweep 1,4,16,64] [-timeout 10m] [-out BENCH_fleet.json]
//
// Devices are assigned round-robin to (app, class); the coordinator dedups
// searches per (app × class), so the fleet's cost is bounded by that
// product, not by the device count — exactly the point of the crowd-scale
// loop.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"replayopt/internal/fleet"
	"replayopt/internal/schema"
)

type device struct {
	id    string
	app   string
	class string
}

func main() {
	server := flag.String("server", "http://127.0.0.1:8347", "fleetd base URL")
	devices := flag.Int("devices", 1000, "simulated device count")
	appsFlag := flag.String("apps", "FFT,SOR", "comma-separated apps the fleet runs")
	classes := flag.Int("classes", 2, "device-class count")
	sweepFlag := flag.String("sweep", "1,4,16,64", "upload-concurrency sweep levels")
	timeout := flag.Duration("timeout", 10*time.Minute, "deadline for the coordinator to finish all searches")
	out := flag.String("out", "BENCH_fleet.json", "benchmark artifact path")
	attempts := flag.Int("attempts", 4, "client retry attempts per request")
	flag.Parse()

	appList := strings.Split(*appsFlag, ",")
	for i := range appList {
		appList[i] = strings.TrimSpace(appList[i])
	}
	var sweep []int
	for _, s := range strings.Split(*sweepFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "fleetload: bad -sweep level %q\n", s)
			os.Exit(2)
		}
		sweep = append(sweep, n)
	}

	fleetDevices := make([]device, *devices)
	for i := range fleetDevices {
		fleetDevices[i] = device{
			id:    fmt.Sprintf("dev-%05d", i),
			app:   appList[i%len(appList)],
			class: fmt.Sprintf("class%d", (i/len(appList))%*classes),
		}
	}

	scratch, err := os.MkdirTemp("", "fleetload-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(scratch)

	client := func() *fleet.Client {
		return &fleet.Client{Base: *server, Attempts: *attempts, Backoff: 50 * time.Millisecond}
	}
	if _, err := client().Status(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: coordinator unreachable: %v\n", err)
		os.Exit(1)
	}

	bench := fleet.Bench{
		SchemaVersion: fleet.BenchSchemaVersion,
		Benchmark:     "Fleet",
		Devices:       *devices,
		Apps:          len(appList),
		DeviceClasses: *classes,
	}
	start := time.Now()

	// Phase 1 — upload sweep. The device population is partitioned across
	// the sweep levels (every device uploads exactly once); each level
	// uploads its slice at the level's concurrency and times it.
	var uploadErrs atomic.Int64
	var bytesReused, rawWritten, uploadBytes atomic.Int64
	uploadSlice := func(devs []device, concurrency int) float64 {
		t0 := time.Now()
		var wg sync.WaitGroup
		work := make(chan device)
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := client()
				for d := range work {
					store, err := fleet.BuildDeviceStore(scratch, d.app, d.id)
					if err != nil {
						uploadErrs.Add(1)
						continue
					}
					uploadBytes.Add(int64(len(store)))
					resp, err := c.Upload(fleet.UploadRequest{
						App: d.app, DeviceID: d.id, DeviceClass: d.class, Store: store,
					})
					if err != nil {
						fmt.Fprintf(os.Stderr, "fleetload: upload %s: %v\n", d.id, err)
						uploadErrs.Add(1)
						continue
					}
					bytesReused.Add(resp.BytesReused)
					rawWritten.Add(resp.RawWritten)
				}
			}()
		}
		for _, d := range devs {
			work <- d
		}
		close(work)
		wg.Wait()
		return time.Since(t0).Seconds()
	}

	per := len(fleetDevices) / len(sweep)
	if per == 0 {
		per = 1
	}
	idx := 0
	for i, conc := range sweep {
		n := per
		if i == len(sweep)-1 {
			n = len(fleetDevices) - idx // last level takes the remainder
		}
		if idx+n > len(fleetDevices) {
			n = len(fleetDevices) - idx
		}
		if n <= 0 {
			break
		}
		slice := fleetDevices[idx : idx+n]
		idx += n
		secs := uploadSlice(slice, conc)
		row := fleet.BenchSweepRow{Concurrency: conc, Uploads: n}
		if secs > 0 {
			row.UploadsPerSec = float64(n) / secs
		}
		bench.Sweep = append(bench.Sweep, row)
		fmt.Printf("sweep concurrency=%-3d uploads=%-5d %8.1f uploads/sec\n", conc, n, row.UploadsPerSec)
	}
	bench.Uploads = idx - int(uploadErrs.Load())
	bench.UploadBytes = uploadBytes.Load()
	if bench.Uploads > 0 {
		var total float64
		var n int
		for _, r := range bench.Sweep {
			if r.UploadsPerSec > 0 {
				total += float64(r.Uploads) / r.UploadsPerSec
				n += r.Uploads
			}
		}
		if total > 0 {
			bench.UploadsPerSec = float64(n) / total
		}
	}
	if rw := rawWritten.Load(); rw > 0 {
		bench.DedupFactor = float64(bytesReused.Load()+rw) / float64(rw)
	}
	if uploadErrs.Load() > 0 {
		fmt.Fprintf(os.Stderr, "fleetload: %d uploads failed\n", uploadErrs.Load())
		os.Exit(1)
	}

	// Phase 2 — wait for every (app × class) search the uploads enqueued.
	wantJobs := map[string]bool{}
	for _, d := range fleetDevices[:idx] {
		wantJobs[fleet.JobID(d.app, d.class)] = true
	}
	deadline := time.Now().Add(*timeout)
	for {
		st, err := client().Status()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetload: status: %v\n", err)
			os.Exit(1)
		}
		done, failed := 0, 0
		seen := map[string]bool{}
		for _, j := range st.Jobs {
			seen[j.ID] = true
			switch j.State {
			case fleet.JobDone:
				done++
			case fleet.JobFailed:
				failed++
			}
		}
		dropped := 0
		for id := range wantJobs {
			if !seen[id] {
				dropped++
			}
		}
		bench.SearchesRun = done
		bench.FailedJobs = failed
		bench.DroppedJobs = dropped
		if done+failed >= len(wantJobs) && dropped == 0 {
			break
		}
		if time.Now().After(deadline) {
			bench.DroppedJobs = len(wantJobs) - done - failed + dropped
			fmt.Fprintf(os.Stderr, "fleetload: deadline: %d/%d searches unfinished\n",
				bench.DroppedJobs, len(wantJobs))
			os.Exit(1)
		}
		time.Sleep(200 * time.Millisecond)
	}
	// Searches overlap the upload phase, so rate them over the wall time
	// since the load began — the fleet-operator view of coordinator
	// throughput, not the residual wait after uploads finished.
	if searchSecs := time.Since(start).Seconds(); searchSecs > 0 && bench.SearchesRun > 0 {
		bench.SearchesPerHr = float64(bench.SearchesRun) / searchSecs * 3600
	}
	if st, err := client().Status(); err == nil {
		for _, j := range st.Jobs {
			// Resumed counts journal-served evaluations — work a killed or
			// drained coordinator did not repeat.
			bench.ResumedEvals += j.Resumed
		}
	}

	// Phase 3 — every device fetches its artifact. Searches are deduped per
	// (app × class), so all but the first requester per pair ride the cache.
	var hits, requests, fetchErrs atomic.Int64
	var wg sync.WaitGroup
	work := make(chan device)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client()
			for d := range work {
				requests.Add(1)
				_, err := c.Artifact(d.app, d.class, "")
				switch {
				case err == nil:
					hits.Add(1)
				case errors.Is(err, fleet.ErrNotReady):
					// Search failed earlier; counted in FailedJobs.
				default:
					fmt.Fprintf(os.Stderr, "fleetload: artifact %s: %v\n", d.id, err)
					fetchErrs.Add(1)
				}
			}
		}()
	}
	for _, d := range fleetDevices[:idx] {
		work <- d
	}
	close(work)
	wg.Wait()
	if fetchErrs.Load() > 0 {
		os.Exit(1)
	}
	bench.ArtifactRequests = int(requests.Load())
	bench.ArtifactHits = int(hits.Load())
	if bench.ArtifactRequests > 0 {
		bench.CacheHitRatio = float64(bench.ArtifactHits) / float64(bench.ArtifactRequests)
	}
	bench.WallMs = float64(time.Since(start).Milliseconds())

	data, err := schema.Encode(&bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetload: %s: %v\n", *out, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\n%d devices, %d uploads (%.1f/sec overall), dedup factor %.1fx\n",
		bench.Devices, bench.Uploads, bench.UploadsPerSec, bench.DedupFactor)
	fmt.Printf("%d searches (%.1f/hour), %d failed, %d dropped\n",
		bench.SearchesRun, bench.SearchesPerHr, bench.FailedJobs, bench.DroppedJobs)
	fmt.Printf("artifact cache: %d/%d hits (ratio %.3f)\n",
		bench.ArtifactHits, bench.ArtifactRequests, bench.CacheHitRatio)
	fmt.Printf("wrote %s\n", *out)
}
