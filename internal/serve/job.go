package serve

// Job requests, validation, lifecycle state, and the three job executors
// (sweep, leakscan, conform). Every executor routes its cells through the
// server's memoized campaign Exec hook, so all three job types share the
// content-addressed cache and the global compute-slot pool.
//
// The sweep executor and cmd/benchtable both assemble their artifact with
// campaign.Sweep over the same runner.Matrix, which is what makes an
// HTTP-fetched sweep artifact byte-identical to `benchtable -benchjson
// -benchhost=false` over the same matrix.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/conform"
	"invisispec/internal/engine"
	"invisispec/internal/leakage"
	"invisispec/internal/runner"
	"invisispec/internal/workload"
)

// Job types accepted by POST /api/v1/jobs.
const (
	TypeSweep    = "sweep"
	TypeLeakscan = "leakscan"
	TypeConform  = "conform"
)

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle: pending -> running -> done | failed | interrupted.
const (
	StatePending JobState = "pending"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	// StateInterrupted marks a job whose cells were refused by a drain: the
	// completed cells are cached, and a resubmission computes only the
	// rest.
	StateInterrupted JobState = "interrupted"
)

// JobRequest is the POST /api/v1/jobs body. Type selects the job family;
// the other fields parameterize it (zero values take documented defaults).
type JobRequest struct {
	// Type is "sweep", "leakscan", or "conform".
	Type string `json:"type"`
	// Name labels the artifact (default: the type). For sweep jobs it is
	// embedded in the bench JSON, so byte-identity with a benchtable run
	// requires matching -benchname.
	Name string `json:"name,omitempty"`

	// Sweep: the experiment matrix. Workloads defaults to the full SPEC
	// (or PARSEC) suite, Defenses to every registered scheme, Consistency
	// to [TSO, RC], Seeds to the fault-free single seed, Warmup/Measure to
	// the smoke budget (5000/20000), Kernel to "fast".
	Workloads   []string `json:"workloads,omitempty"`
	Parsec      bool     `json:"parsec,omitempty"`
	Defenses    []string `json:"defenses,omitempty"`
	Consistency []string `json:"consistency,omitempty"`
	Seeds       []int64  `json:"seeds,omitempty"`
	Warmup      uint64   `json:"warmup,omitempty"`
	Measure     uint64   `json:"measure,omitempty"`
	Kernel      string   `json:"kernel,omitempty"`

	// Leakscan: Corpus is "smoke" (default) or "fuzz"; Seed/N parameterize
	// the fuzz corpus; Trials is per-cell trial count (default 3).
	Corpus string `json:"corpus,omitempty"`
	Trials int    `json:"trials,omitempty"`

	// Seed/N are shared by leakscan fuzz corpora and conform campaigns
	// (conform: N generated programs from Seed, default 8).
	Seed int64 `json:"seed,omitempty"`
	N    int   `json:"n,omitempty"`
}

// normalize validates the request and fills defaults in place.
func (r *JobRequest) normalize() error {
	switch r.Type {
	case TypeSweep:
		if len(r.Workloads) == 0 {
			r.Workloads = workload.SuiteNames(r.Parsec)
		}
		// Validate names at submission, not at cell time: a typo'd workload
		// fails the POST with the sorted registry listing, instead of
		// surfacing mid-campaign as degraded cells.
		for _, name := range r.Workloads {
			if _, err := workload.Lookup(name); err != nil {
				return err
			}
		}
		if r.Warmup == 0 {
			r.Warmup = 5000
		}
		if r.Measure == 0 {
			r.Measure = 20000
		}
		if r.Kernel == "" {
			r.Kernel = engine.KernelFast.String()
		}
		if _, err := engine.ParseKernel(r.Kernel); err != nil {
			return err
		}
		if _, err := config.ParseConsistencies(r.Consistency); err != nil {
			return err
		}
	case TypeLeakscan:
		if r.Corpus == "" {
			r.Corpus = "smoke"
		}
		if r.Corpus != "smoke" && r.Corpus != "fuzz" {
			return fmt.Errorf("serve: unknown corpus %q (want smoke or fuzz)", r.Corpus)
		}
		if r.Trials <= 0 {
			r.Trials = 3
		}
		if r.Seed == 0 {
			r.Seed = 1
		}
		if r.N <= 0 {
			r.N = 12
		}
	case TypeConform:
		if r.N <= 0 {
			r.N = 8
		}
	case "":
		return fmt.Errorf("serve: job request missing \"type\" (want sweep, leakscan, or conform)")
	default:
		return fmt.Errorf("serve: unknown job type %q (want sweep, leakscan, or conform)", r.Type)
	}
	if r.Name == "" {
		r.Name = r.Type
	}
	if _, err := parseDefenseList(r.Defenses); err != nil {
		return err
	}
	return nil
}

// parseDefenseList resolves defense names; empty means nil (callers treat
// nil as "every registered scheme").
func parseDefenseList(names []string) ([]config.Defense, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]config.Defense, len(names))
	for i, n := range names {
		d, err := config.ParseDefense(n)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// Job is one submitted job's full state. Immutable fields are set at
// submission; mutable ones are guarded by the server mutex (stateV, error,
// artifact) or are atomics (progress and cache counters).
type Job struct {
	ID      string
	Req     JobRequest
	Created time.Time

	// Guarded by Server.mu.
	stateV      JobState
	started     time.Time
	finished    time.Time
	errText     string
	artifact    []byte
	verdict     []byte
	degraded    int
	totalCells  int
	contentType string

	// Atomics: updated from worker goroutines, read by status handlers.
	completed atomic.Int64
	failed    atomic.Int64
	cacheHits atomic.Int64
	// cacheMisses counts cells this job actually computed (or led the
	// singleflight for). A fully cached resubmission reports zero — the
	// observable the CI cache gate asserts on.
	cacheMisses atomic.Int64
	cancelled   atomic.Int64

	srv *Server
}

func (j *Job) state() JobState {
	j.srv.mu.Lock()
	defer j.srv.mu.Unlock()
	return j.stateV
}

// cancelledOrFailed tallies a cell the executor could not complete.
func (j *Job) cancelledOrFailed(err error) {
	if errors.Is(err, context.Canceled) {
		j.cancelled.Add(1)
	}
}

// errInterrupted marks a job cut short by a drain.
var errInterrupted = errors.New("serve: job interrupted by shutdown")

// runJob drives one job to a terminal state. It runs on its own goroutine;
// the drain path waits for it through the server WaitGroup.
func (s *Server) runJob(job *Job) {
	defer s.wg.Done()
	s.mu.Lock()
	job.stateV = StateRunning
	job.started = time.Now()
	s.mu.Unlock()
	s.logLine("job", map[string]any{"job": job.ID, "type": job.Req.Type, "state": string(StateRunning)})

	art, verdict, err := s.execute(context.Background(), job)

	s.mu.Lock()
	job.finished = time.Now()
	switch {
	case errors.Is(err, errInterrupted):
		job.stateV = StateInterrupted
		job.errText = err.Error()
	case err != nil:
		job.stateV = StateFailed
		job.errText = err.Error()
	default:
		job.stateV = StateDone
		job.artifact = art
		job.verdict = verdict
		job.contentType = "application/json"
	}
	state, errText := job.stateV, job.errText
	s.mu.Unlock()
	fields := map[string]any{
		"job": job.ID, "type": job.Req.Type, "state": string(state),
		"cache_hits": job.cacheHits.Load(), "cache_misses": job.cacheMisses.Load(),
	}
	if errText != "" {
		fields["error"] = errText
	}
	s.logLine("job", fields)
}

// execute dispatches to the job family's executor.
func (s *Server) execute(ctx context.Context, job *Job) (art, verdict []byte, err error) {
	switch job.Req.Type {
	case TypeSweep:
		return s.runSweep(ctx, job)
	case TypeLeakscan:
		art, err = s.runLeakscan(ctx, job)
	case TypeConform:
		art, err = s.runConform(ctx, job)
	default:
		err = fmt.Errorf("serve: unknown job type %q", job.Req.Type)
	}
	return art, nil, err
}

// runSweep executes a bench matrix through campaign.Sweep — the path
// cmd/benchtable's -benchjson takes, without its host block — and returns
// the bench-JSON artifact and its baseline verdict.
func (s *Server) runSweep(ctx context.Context, job *Job) (art, verdict []byte, err error) {
	req := job.Req
	defs, _ := parseDefenseList(req.Defenses)
	if defs == nil {
		defs = config.AllDefenses()
	}
	cms, err := config.ParseConsistencies(req.Consistency)
	if err != nil {
		return nil, nil, err
	}
	kernel, err := engine.ParseKernel(req.Kernel)
	if err != nil {
		return nil, nil, err
	}
	jobs := runner.Matrix(req.Workloads, req.Parsec, cms, defs, req.Seeds, req.Warmup, req.Measure)
	s.setTotal(job, len(jobs))
	_, b, err := campaign.Sweep(ctx, req.Name, jobs, kernel, s.campaignOpts(job), nil)
	if err != nil {
		return nil, nil, err
	}
	if job.cancelled.Load() > 0 {
		return nil, nil, errInterrupted
	}
	var buf bytes.Buffer
	if err := runner.WriteBenchJSON(&buf, b); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	job.degraded = len(b.Degraded)
	s.mu.Unlock()
	return buf.Bytes(), s.sweepVerdict(b), nil
}

// sweepVerdict gates a finished sweep against the configured baseline and
// returns the benchdiff-verdict/v1 document (nil without a baseline or when
// the baseline is unreadable — the verdict is advisory, never fatal).
func (s *Server) sweepVerdict(cand *runner.Bench) []byte {
	if s.opts.Baseline == "" {
		return nil
	}
	f, err := os.Open(s.opts.Baseline)
	if err != nil {
		s.logLine("verdict", map[string]any{"error": err.Error()})
		return nil
	}
	defer f.Close()
	base, err := runner.ReadBenchJSON(f)
	if err != nil {
		s.logLine("verdict", map[string]any{"error": err.Error()})
		return nil
	}
	v := runner.CompareBench(base, cand, 0.10, 0.02)
	var buf bytes.Buffer
	enc := jsonEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// runLeakscan executes a leakage scan and returns the leakage-report/v1
// artifact (deterministic: the server never attaches the host block).
func (s *Server) runLeakscan(ctx context.Context, job *Job) ([]byte, error) {
	req := job.Req
	defs, _ := parseDefenseList(req.Defenses)
	var specs []leakage.AttackSpec
	if req.Corpus == "fuzz" {
		specs = leakage.Corpus(req.Seed, req.N)
	} else {
		specs = leakage.SmokeCorpus()
	}
	nDefs := len(defs)
	if nDefs == 0 {
		nDefs = len(config.AllDefenses())
	}
	s.setTotal(job, len(specs)*nDefs*req.Trials)
	rep, err := leakage.Scan(ctx, specs, leakage.ScanOptions{
		Defenses: defs,
		Trials:   req.Trials,
		Jobs:     s.opts.workers(),
		Timeout:  s.opts.CellTimeout,
		Name:     req.Name,
		Campaign: s.campaignOpts(job),
	})
	if err != nil {
		return nil, err
	}
	if job.cancelled.Load() > 0 {
		return nil, errInterrupted
	}
	if req.Corpus == "fuzz" {
		rep.Seed, rep.Count = req.Seed, req.N
	}
	var buf bytes.Buffer
	if err := leakage.WriteJSON(&buf, rep); err != nil {
		return nil, err
	}
	s.mu.Lock()
	job.degraded = len(rep.Degraded)
	s.mu.Unlock()
	return buf.Bytes(), nil
}

// runConform executes a conformance fuzz campaign and returns the
// conform-report/v1 artifact (its host block is nondeterministic by
// design, like cmd/conformfuzz's).
func (s *Server) runConform(ctx context.Context, job *Job) ([]byte, error) {
	req := job.Req
	defs, _ := parseDefenseList(req.Defenses)
	s.setTotal(job, req.N)
	rep, err := conform.Campaign(ctx, conform.Options{
		Seed:     uint64(req.Seed),
		N:        req.N,
		Jobs:     s.opts.workers(),
		Defenses: defs,
		Timeout:  s.opts.CellTimeout,
		Campaign: s.campaignOpts(job),
	})
	if err != nil {
		return nil, err
	}
	if job.cancelled.Load() > 0 {
		return nil, errInterrupted
	}
	var buf bytes.Buffer
	if err := conform.WriteReportJSON(&buf, rep); err != nil {
		return nil, err
	}
	s.mu.Lock()
	job.degraded = len(rep.Degraded)
	s.mu.Unlock()
	return buf.Bytes(), nil
}

func (s *Server) setTotal(job *Job, n int) {
	s.mu.Lock()
	job.totalCells = n
	s.mu.Unlock()
}
