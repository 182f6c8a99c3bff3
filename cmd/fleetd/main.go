// Command fleetd is the crowd-scale optimization coordinator (ROADMAP item
// 1): a long-running HTTP/JSON service that accepts capture uploads from
// devices into a sharded content-addressed store, fans resumable GA
// searches across (app × device class) on a bounded worker pool, and serves
// finished winners from a policy-lock-validated artifact cache. See
// DESIGN.md §15 for the architecture and README.md "Fleet mode" for a
// quickstart.
//
// Usage:
//
//	fleetd -dir state/ [-addr 127.0.0.1:8347] [-workers 2] [-apps FFT,SOR]
//	       [-pop 8] [-gens 3] [-hill 6] [-parallel 2]
//	       [-trace server-trace.jsonl]
//
// The coordinator drains gracefully on SIGINT/SIGTERM: uploads in flight
// finish, running searches stop at their next evaluation-batch boundary
// (their journals keep every finished evaluation), and the process exits
// once the state on disk is a clean resume point. Restarting with the same
// -dir picks up exactly where the drain left off.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"replayopt/internal/fleet"
	"replayopt/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address")
	dir := flag.String("dir", "", "state directory (shards, artifacts, journals, job log); required")
	workers := flag.Int("workers", 2, "concurrent search workers")
	appsFlag := flag.String("apps", "", "comma-separated served apps (empty = whole registry)")
	pop := flag.Int("pop", 8, "GA population per job search")
	gens := flag.Int("gens", 3, "GA generations per job search")
	hill := flag.Int("hill", 6, "GA hill-climb budget per job search")
	parallel := flag.Int("parallel", 2, "evaluation workers within one search")
	tracePath := flag.String("trace", "", "write a JSONL span trace of server operations to this file")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "fleetd: -dir is required")
		os.Exit(2)
	}

	sc := obs.New()
	var traceFile *obs.TraceFile
	if *tracePath != "" {
		var err error
		traceFile, err = obs.CreateTraceFile(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
			os.Exit(1)
		}
		sc.AddSink(traceFile)
	}

	var appList []string
	if *appsFlag != "" {
		for _, a := range strings.Split(*appsFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				appList = append(appList, a)
			}
		}
	}

	srv, err := fleet.NewServer(fleet.Config{
		Dir:     *dir,
		Workers: *workers,
		Apps:    appList,
		Scale: fleet.SearchScale{
			Population: *pop, Generations: *gens, HillClimbBudget: *hill,
			Parallelism: *parallel,
		},
		Scope: sc,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		os.Exit(1)
	}
	srv.Start()

	hs := &http.Server{
		Addr:         *addr,
		Handler:      srv.Handler(),
		ReadTimeout:  60 * time.Second,
		WriteTimeout: 60 * time.Second,
		IdleTimeout:  120 * time.Second,
	}

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "fleetd: %v: draining (searches stop at next batch boundary)\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Drain()
		close(done)
	}()

	fmt.Fprintf(os.Stderr, "fleetd: serving on %s, state in %s, %d search workers\n", *addr, *dir, *workers)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		os.Exit(1)
	}
	<-done
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintln(os.Stderr, "fleetd: drained cleanly")
}
