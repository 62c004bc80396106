package campaign

// Bench sweeps: turns the runner's experiment-matrix jobs into campaign
// cells whose content key is the (workload, defense, consistency, seed,
// budget, kernel) tuple, maps campaign outcomes back into the JobResult
// shape the figure generators consume, and assembles the bench-JSON
// artifact. Sweep is the one path cmd/benchtable (both kernels of
// -comparekernels) and the simulation server's sweep jobs run through.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/runner"
)

// JobSpec is a bench cell's content identity: every input that determines
// the run's deterministic output, and nothing host-dependent (timeouts and
// worker counts deliberately excluded). Its hash is a bench cell's
// content key.
type JobSpec struct {
	Workload    string             `json:"workload"`
	Parsec      bool               `json:"parsec,omitempty"`
	Defense     config.Defense     `json:"defense"`
	Consistency config.Consistency `json:"consistency"`
	Warmup      uint64             `json:"warmup"`
	Measure     uint64             `json:"measure"`
	FaultSeed   int64              `json:"fault_seed,omitempty"`
	Kernel      string             `json:"kernel"`
}

// SpecForJob builds the content identity for one job under a kernel.
func SpecForJob(j runner.Job, kernel engine.Kernel) JobSpec {
	return JobSpec{
		Workload:    j.Workload,
		Parsec:      j.Parsec,
		Defense:     j.Defense,
		Consistency: j.Consistency,
		Warmup:      j.Warmup,
		Measure:     j.Measure,
		FaultSeed:   j.FaultSeed,
		Kernel:      kernel.String(),
	}
}

// RunJobSpec executes one bench cell from its spec alone; it is the cell
// body JobCells builds.
func RunJobSpec(ctx context.Context, s JobSpec) (harness.Result, error) {
	kernel, err := engine.ParseKernel(s.Kernel)
	if err != nil {
		return harness.Result{}, fmt.Errorf("campaign: job %s/%s/%s: %w", s.Workload, s.Defense, s.Consistency, err)
	}
	opts := []harness.Option{harness.WithContext(ctx), harness.WithKernel(kernel)}
	if s.FaultSeed != 0 {
		opts = append(opts, harness.WithFaultSeed(s.FaultSeed))
	}
	// s.Parsec stays part of the content identity (cached keys predate
	// the registry) but dispatch is the registry's job now.
	return harness.MeasureWorkload(s.Workload, s.Defense, s.Consistency, s.Warmup, s.Measure, opts...)
}

// JobCells wraps an experiment matrix as campaign cells under one kernel,
// each attempt bounded by timeout (0 = Options.CellTimeout).
func JobCells(jobs []runner.Job, kernel engine.Kernel, timeout time.Duration) []Cell {
	cells := make([]Cell, len(jobs))
	for i, j := range jobs {
		spec := SpecForJob(j, kernel)
		cells[i] = Cell{
			Name:    j.String(),
			Spec:    spec,
			Timeout: timeout,
			Run: func(ctx context.Context) (any, error) {
				return RunJobSpec(ctx, spec)
			},
		}
	}
	return cells
}

// JobResults converts campaign outcomes (parallel to the jobs that built the
// cells) back into the runner's JobResult shape: cached and fresh values
// decode identically, failed cells carry their terminal error.
func JobResults(jobs []runner.Job, outcomes []Outcome) ([]runner.JobResult, error) {
	if len(jobs) != len(outcomes) {
		return nil, fmt.Errorf("campaign: %d outcomes for %d jobs", len(outcomes), len(jobs))
	}
	results := make([]runner.JobResult, len(jobs))
	for i, o := range outcomes {
		results[i] = runner.JobResult{Job: jobs[i], Index: i, Err: o.Err, HostNS: o.HostNS}
		if o.Err != nil {
			continue
		}
		if err := json.Unmarshal(o.Value, &results[i].Result); err != nil {
			return nil, fmt.Errorf("campaign: decoding result for %s: %w", o.Name, err)
		}
	}
	return results, nil
}

// Sweep runs a bench matrix under one kernel as the campaign
// "sweep-<name>" and assembles the bench artifact called name: JobCells,
// Run, JobResults, runner.NewBench, and the degraded block, whose repro
// commands come from repro (nil leaves them empty). The artifact's budget
// is the matrix's, which every job of it shares. The artifact carries no
// host block; callers that want one attach it. Cell keys differ by
// kernel, so both kernels' sweeps of one matrix can share a cache.
func Sweep(ctx context.Context, name string, jobs []runner.Job, kernel engine.Kernel, opts Options, repro func(runner.Job) string) ([]runner.JobResult, *runner.Bench, error) {
	outcomes, err := Run(ctx, "sweep-"+name, JobCells(jobs, kernel, 0), opts)
	if err != nil {
		return nil, nil, err
	}
	results, err := JobResults(jobs, outcomes)
	if err != nil {
		return nil, nil, err
	}
	var warmup, measure uint64
	if len(jobs) > 0 {
		warmup, measure = jobs[0].Warmup, jobs[0].Measure
	}
	b := runner.NewBench(name, warmup, measure, results)
	b.Degraded = Degraded(outcomes, func(o Outcome) string {
		if repro == nil {
			return ""
		}
		return repro(jobs[o.Index])
	})
	return results, b, nil
}
