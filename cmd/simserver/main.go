// Command simserver runs the simulation-as-a-service HTTP job server
// (internal/serve): clients POST sweep, leakage-scan, or conformance job
// requests, the server shards cells across a bounded worker pool, memoizes
// every cell in a content-addressed on-disk cache, and serves artifacts,
// benchdiff verdicts, metrics, and the HTML dashboard.
//
//	simserver -addr :8080 -cache /var/cache/invisispec -baseline BENCH_baseline.json
//
// Quick start:
//
//	curl -s -X POST localhost:8080/api/v1/jobs -d '{"type":"sweep","name":"smoke"}'
//	curl -s localhost:8080/api/v1/jobs/j1
//	curl -s localhost:8080/api/v1/jobs/j1/artifact > BENCH_smoke.json
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops, new
// submissions get 503, in-flight cells finish and are cached, fresh cell
// computations are refused (they re-run — mostly from cache — on
// resubmission after restart), and simserver prints "simserver drained".
// The cache directory holds one file per finished cell and nothing else;
// each entry is stamped with the simserver build that wrote it, and an
// entry another build wrote is recomputed.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"invisispec/internal/serve"
	"invisispec/internal/workload"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable body: the signal test re-execs the test binary
// into this function and kills it mid-job.
func realMain(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("simserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		cacheDir  = fs.String("cache", "simcache", "content-addressed memo cache directory")
		workers   = fs.Int("workers", 0, "global compute slots (0 = GOMAXPROCS)")
		history   = fs.String("history", "", "directory of committed BENCH_*.json artifacts for the trends page")
		baseline  = fs.String("baseline", "", "bench artifact to gate sweep jobs against (benchdiff verdict)")
		retries   = fs.Int("retries", 0, "transient-failure retries per cell")
		timeout   = fs.Duration("cell-timeout", 5*time.Minute, "per-cell wall-clock timeout (0 = none)")
		drainWait = fs.Duration("drain-timeout", 10*time.Minute, "max wait for in-flight cells on shutdown")
		impDir    = fs.String("import", "", "import *.trace files from this directory as workloads before serving")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *impDir != "" {
		if _, err := workload.ImportDir(*impDir); err != nil {
			fmt.Fprintln(stderr, "simserver:", err)
			return 1
		}
	}
	srv, err := serve.New(serve.Options{
		Workers:     *workers,
		CacheDir:    *cacheDir,
		HistoryDir:  *history,
		Baseline:    *baseline,
		Retries:     *retries,
		CellTimeout: *timeout,
		LogWriter:   stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "simserver:", err)
		return 1
	}
	expvar.Publish("simserver", expvar.Func(func() any { return srv.Metrics() }))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "simserver:", err)
		return 1
	}
	// The parseable startup line: tests and scripts read the bound address
	// from it (the -addr may be :0).
	fmt.Fprintf(stdout, "simserver listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var code int
	select {
	case <-ctx.Done():
		// Stop accepting connections, then drain: in-flight cells finish
		// and are cached.
		fmt.Fprintln(stderr, "simserver: signal received, draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(stderr, "simserver:", err)
			code = 1
		}
		if err := srv.Drain(shutCtx); err != nil {
			fmt.Fprintln(stderr, "simserver:", err)
			code = 1
		}
		fmt.Fprintln(stdout, "simserver drained")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "simserver:", err)
			code = 1
		}
	}
	return code
}
