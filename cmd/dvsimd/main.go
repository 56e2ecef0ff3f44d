// Command dvsimd serves dvsim over HTTP: a long-running simulation
// server with a content-addressed run cache. Submissions — single
// experiments streamed as telemetry JSONL, or manifest sweeps
// aggregated to CSV — execute on a bounded worker pool behind a
// two-level priority queue; every artifact is stored under the SHA-256
// of its resolved configuration, so an identical resubmission replays
// stored bytes instead of simulating again (sound because every dvsim
// run is byte-deterministic).
//
//	dvsimd -addr :8080 -cache-dir /var/cache/dvsim -scenarios ./scenarios
//	dvsim -remote http://localhost:8080 -run 1 -telemetry - -until 120
//	curl -s --data-binary @scenarios/manifests/paper.toml -H 'Content-Type: application/toml' localhost:8080/api/v1/submit
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dvsim/internal/buildinfo"
	"dvsim/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulation workers (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 64, "submission backlog bound; a full queue answers 503")
	cacheDir := flag.String("cache-dir", "", "persist the run cache in DIR (empty = in-memory only)")
	scenarios := flag.String("scenarios", "", "root DIR for file references in submissions: by-name fault scenarios and assertion specs, and a runfile's platform, faults and assert paths (empty = inline documents only)")
	version := flag.Bool("version", false, "print the engine/build version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	srv, err := service.New(service.Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		CacheDir:    *cacheDir,
		ScenarioDir: *scenarios,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	// Signal-driven shutdown, joined via done before main returns.
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "dvsimd: draining (in-flight runs finish, queue empties)")
		shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(shctx)
		srv.Close()
	}()

	fmt.Fprintf(os.Stderr, "dvsimd %s listening on %s\n", buildinfo.Version(), *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
	st := srv.Cache().Stats()
	fmt.Fprintf(os.Stderr, "dvsimd: stopped; cache served %d hit(s), %d miss(es), %d entries (%d bytes)\n",
		st.Hits, st.Misses, st.Entries, st.Bytes)
}
