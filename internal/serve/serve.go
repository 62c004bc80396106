// Package serve is the simulation-as-a-service layer: a long-running HTTP
// job server over the deterministic simulator. Clients POST sweep, leakage-
// scan, or conformance job requests; the server shards each job's cells
// across a bounded worker pool built on the campaign/runner execution
// layers, and memoizes every cell in a content-addressed on-disk store
// (internal/memo) keyed by the cell's campaign content hash — the sha256 of
// its canonical spec JSON (schema-versioned workload, defense, consistency,
// seed, budget, kernel). Because every simulation is byte-deterministic, a
// memoized cell is byte-exact: repeat and concurrent-identical submissions
// are served from cache or deduplicated in flight (singleflight) without
// re-running a single simulation, and a sweep artifact fetched over HTTP is
// byte-identical to the same sweep run via cmd/benchtable. The store serves
// only entries this server's build wrote (see internal/memo).
//
// The package is transport-complete but binary-agnostic: cmd/simserver
// wires it to net/http, signals, and flags. Endpoints:
//
//	POST /api/v1/jobs              submit a job (JSON body, see JobRequest)
//	GET  /api/v1/jobs              list jobs
//	GET  /api/v1/jobs/{id}         job status (state, progress, cache counts)
//	GET  /api/v1/jobs/{id}/artifact  the job's artifact bytes
//	GET  /api/v1/jobs/{id}/verdict   benchdiff verdict vs the baseline (sweeps)
//	GET  /metrics                  cache/pool counters (expvar-style JSON)
//	GET  /healthz                  liveness
//	GET  /, /jobs/{id}, /trends    HTML dashboard (internal/report)
//
// Shutdown is a drain, not an abort: Drain refuses new submissions (503)
// and new cell computations and lets in-flight cells finish and reach the
// cache; the store has nothing else to write. Refused cells fail with a
// cancellation-classed error, which is never cached — so a resubmitted
// job gets its finished cells from the cache and computes only the cells
// the drain refused.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/memo"
	"invisispec/internal/runner"
)

// Options tunes a Server.
type Options struct {
	// Workers is the global compute-slot count shared by every job: at most
	// this many simulations run at once server-wide, regardless of how many
	// jobs are in flight. <=0 means GOMAXPROCS.
	Workers int
	// CacheDir roots the content-addressed memo store (required).
	CacheDir string
	// HistoryDir, when non-empty, is scanned for committed BENCH_*.json
	// artifacts to draw the dashboard's trend lines.
	HistoryDir string
	// Baseline, when non-empty, is the bench artifact every sweep job is
	// gated against (runner.CompareBench) for its /verdict endpoint.
	Baseline string
	// Retries is the campaign transient-retry budget per cell.
	Retries int
	// CellTimeout bounds each cell attempt's host wall-clock time.
	CellTimeout time.Duration
	// LogWriter receives structured JSON log lines (requests, job
	// transitions, cell completions). nil means no logging. Logs are always
	// separate from artifact bytes: artifacts only ever travel in response
	// bodies.
	LogWriter io.Writer
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Server is the simulation job server. Create with New, mount Handler on an
// http.Server, stop with Drain.
type Server struct {
	opts  Options
	store *memo.Store
	mux   *http.ServeMux
	logMu sync.Mutex

	// slots is the global compute semaphore; queueDepth counts cells
	// waiting for a slot, busy counts cells holding one.
	slots      chan struct{}
	queueDepth atomic.Int64
	busy       atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listings
	nextID   int
	draining bool
	wg       sync.WaitGroup // in-flight job goroutines

	// testHook, when non-nil, fires at the start of every fresh (non-
	// memoized) cell computation with the cell's name — the deterministic
	// seam the drain tests use to trigger shutdown mid-job.
	testHook func(cellName string)
}

// New opens the memo store and assembles the server. The caller owns the
// lifecycle: mount Handler, then Drain before exit.
func New(opts Options) (*Server, error) {
	if opts.CacheDir == "" {
		return nil, fmt.Errorf("serve: Options.CacheDir is required")
	}
	store, err := memo.Open(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		store: store,
		slots: make(chan struct{}, opts.workers()),
		jobs:  make(map[string]*Job),
	}
	s.mux = s.routes()
	return s, nil
}

// Handler returns the server's HTTP handler with request logging applied.
func (s *Server) Handler() http.Handler {
	return s.logRequests(s.mux)
}

// Drain stops the server gracefully: new submissions are refused with 503,
// fresh cell computations are refused (in-flight cells finish and are cached),
// and every job goroutine is waited for. The context bounds the wait; on
// expiry the context error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain timed out: %w", ctx.Err())
	}
	s.logLine("drain", map[string]any{"timed_out": err != nil})
	return err
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// execFor builds a job's campaign Exec hook: the memoization seam. Every
// cell resolves through the content-addressed store (campaign.CacheExec);
// only a miss acquires a global compute slot and runs the simulation. Fresh
// computes are refused while draining with a cancellation-classed error so
// they are never cached and re-run cleanly on resubmission.
func (s *Server) execFor(job *Job) func(ctx context.Context, c campaign.Cell, key string) (json.RawMessage, error) {
	return campaign.CacheExec(s.store, func(ctx context.Context, c campaign.Cell) (any, error) {
		if s.isDraining() {
			return nil, fmt.Errorf("serve: draining, cell %s refused: %w", c.Name, context.Canceled)
		}
		s.queueDepth.Add(1)
		select {
		case s.slots <- struct{}{}:
			s.queueDepth.Add(-1)
		case <-ctx.Done():
			s.queueDepth.Add(-1)
			return nil, ctx.Err()
		}
		defer func() { <-s.slots }()
		s.busy.Add(1)
		defer s.busy.Add(-1)
		// Re-check after the (possibly long) queue wait: a drain that
		// started while this cell queued must still refuse it.
		if s.isDraining() {
			return nil, fmt.Errorf("serve: draining, cell %s refused: %w", c.Name, context.Canceled)
		}
		if h := s.testHook; h != nil {
			h(c.Name)
		}
		return c.Run(ctx)
	}, func(hit bool, err error) {
		switch {
		case err != nil:
			job.cancelledOrFailed(err)
		case hit:
			job.cacheHits.Add(1)
		default:
			job.cacheMisses.Add(1)
		}
	})
}

// campaignOpts assembles a job's campaign options: the memoized executor
// and the structured progress feed.
func (s *Server) campaignOpts(job *Job) campaign.Options {
	copts := campaign.Options{
		Workers:     s.opts.workers(),
		Retries:     s.opts.Retries,
		CellTimeout: s.opts.CellTimeout,
		Exec:        s.execFor(job),
		OnProgress: func(ev runner.ProgressEvent) {
			job.completed.Store(int64(ev.Completed))
			job.failed.Store(int64(ev.Failed))
			fields := map[string]any{
				"job": job.ID, "cell": ev.Name,
				"completed": ev.Completed, "total": ev.Total, "cell_failed": ev.Failed,
				"eta_ms": ev.ETA.Milliseconds(),
			}
			if ev.Err != nil {
				fields["error"] = ev.Err.Error()
			}
			s.logLine("cell", fields)
		},
	}
	return copts
}

// MetricsSnapshot is the /metrics document: memo-store counters plus pool
// and job-registry state. cmd/simserver also publishes it through expvar.
type MetricsSnapshot struct {
	Cache        memo.Stats     `json:"cache"`
	CacheHitRate float64        `json:"cache_hit_rate"`
	QueueDepth   int64          `json:"queue_depth"`
	WorkersBusy  int64          `json:"workers_busy"`
	WorkersTotal int            `json:"workers_total"`
	Jobs         map[string]int `json:"jobs"` // count by state
	Draining     bool           `json:"draining"`
}

// Metrics returns a point-in-time snapshot of the server's counters.
func (s *Server) Metrics() MetricsSnapshot {
	st := s.store.Stats()
	m := MetricsSnapshot{
		Cache:        st,
		CacheHitRate: st.HitRate(),
		QueueDepth:   s.queueDepth.Load(),
		WorkersBusy:  s.busy.Load(),
		WorkersTotal: s.opts.workers(),
		Jobs:         make(map[string]int),
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		m.Jobs[string(j.stateV)]++
	}
	m.Draining = s.draining
	s.mu.Unlock()
	return m
}

// logLine emits one structured JSON log line. Key order is deterministic
// (encoding/json sorts map keys); the timestamp is wall clock — logs are
// host-side observability, never artifact bytes.
func (s *Server) logLine(event string, fields map[string]any) {
	if s.opts.LogWriter == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	rec["event"] = event
	out, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.opts.LogWriter.Write(append(out, '\n'))
}

// logRequests is the request-logging middleware.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		lw := &loggingWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(lw, r)
		s.logLine("request", map[string]any{
			"method": r.Method,
			"path":   r.URL.Path,
			"status": lw.status,
			"bytes":  lw.bytes,
			"dur_ms": float64(time.Since(start).Microseconds()) / 1000,
		})
	})
}

// loggingWriter captures the response status and size for the request log.
type loggingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *loggingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *loggingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}
