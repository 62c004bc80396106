package runner

// This file implements bench-JSON artifacts: the schema-versioned
// measurement format CI compares across commits (cmd/benchdiff). The
// payload is split in two: Runs carries only deterministic simulator output
// (byte-identical for the same matrix no matter how many workers computed
// it), and the optional Host block quarantines everything wall-clock — so
// artifacts diff cleanly and the determinism tests can compare whole files.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"invisispec/internal/artifact"
	"invisispec/internal/stats"
)

// BenchSchema identifies the artifact format; benchdiff refuses to compare
// across schema versions.
const BenchSchema = "invisispec-bench/v1"

// BenchRun is one job's deterministic measurement.
type BenchRun struct {
	Workload    string `json:"workload"`
	Parsec      bool   `json:"parsec,omitempty"`
	Defense     string `json:"defense"`
	Consistency string `json:"consistency"`
	FaultSeed   int64  `json:"fault_seed,omitempty"`

	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	CPI          float64 `json:"cpi"`
	// NormalizedTime is this run's Time in its group (Groups): its CPI
	// over the Base run's CPI within the same (workload, consistency,
	// fault-seed) group, the Figure 4/7 bar. Zero when the group has no
	// successful Base run.
	NormalizedTime float64 `json:"normalized_time,omitempty"`

	TrafficTotal uint64            `json:"traffic_total"`
	Traffic      map[string]uint64 `json:"traffic"` // by class name; json sorts keys

	Squashes         uint64  `json:"squashes"`
	SquashesPerMInst float64 `json:"squashes_per_minst"`
	Exposures        uint64  `json:"exposures"`
	Validations      uint64  `json:"validations"`
	LLCSBRate        float64 `json:"llcsb_rate"`
	DRAMReads        uint64  `json:"dram_reads"`

	// Error carries a failed job's error text; its metric fields are zero.
	Error string `json:"error,omitempty"`
}

// BenchHost is the nondeterministic side of the artifact: where and how fast
// the sweep ran, then each run's wall time. benchdiff ignores it.
type BenchHost struct {
	artifact.Host
	PerRunMS []float64 `json:"run_ms"` // indexed like Runs
	// KernelWallMS records the sweep's wall time per simulation kernel when
	// benchtable -comparekernels re-runs the matrix under both (keys "fast"
	// and "stepped"). Like everything in Host it is informational only —
	// benchdiff trajectories show the fast-forward speedup without gating on
	// it.
	KernelWallMS map[string]float64 `json:"kernel_wall_ms,omitempty"`
}

// Bench is a full artifact.
type Bench struct {
	Schema  string     `json:"schema"`
	Name    string     `json:"name"`
	Warmup  uint64     `json:"warmup"`
	Measure uint64     `json:"measure"`
	Runs    []BenchRun `json:"runs"`
	// Degraded lists the matrix cells whose jobs exhausted their retry
	// budget (campaign graceful degradation): the sweep completed without
	// them, the CLI exits non-zero, and each entry carries a ready-to-run
	// repro command.
	Degraded []artifact.DegradedCell `json:"degraded,omitempty"`
	Host     *BenchHost              `json:"host,omitempty"`
}

// NewBench assembles the deterministic part of an artifact from aggregated
// results, with each run's normalized time taken within its group
// (Groups).
func NewBench(name string, warmup, measure uint64, results []JobResult) *Bench {
	b := &Bench{Schema: BenchSchema, Name: name, Warmup: warmup, Measure: measure,
		Runs: make([]BenchRun, 0, len(results))}
	names := stats.TrafficClassNames()
	for _, r := range results {
		br := BenchRun{
			Workload:    r.Job.Workload,
			Parsec:      r.Job.Parsec,
			Defense:     r.Job.Defense.String(),
			Consistency: r.Job.Consistency.String(),
			FaultSeed:   r.Job.FaultSeed,
		}
		if r.Err != nil {
			br.Error = r.Err.Error()
			b.Runs = append(b.Runs, br)
			continue
		}
		res := r.Result
		br.Instructions = res.Instructions
		br.Cycles = res.Cycles
		br.CPI = res.CPI()
		br.TrafficTotal = res.TotalTraffic()
		br.Traffic = make(map[string]uint64, len(names))
		for c, n := range names {
			br.Traffic[n] = res.Traffic[c]
		}
		br.Squashes = res.Core.TotalSquashes()
		br.SquashesPerMInst = res.Core.SquashesPerMInst()
		br.Exposures = res.Core.Exposures
		br.Validations = res.Core.Validations()
		br.LLCSBRate = res.LLCSBRate
		br.DRAMReads = res.DRAMReads
		b.Runs = append(b.Runs, br)
	}
	groups := b.Groups()
	for i := range groups {
		for _, r := range groups[i].Runs {
			r.NormalizedTime, _ = groups[i].Value(r, Time)
		}
	}
	return b
}

// WithHost attaches the host block for a sweep that took wall time with the
// given worker count. Returns b for chaining.
func (b *Bench) WithHost(wall time.Duration, jobs int, results []JobResult) *Bench {
	h := &BenchHost{Host: *artifact.NewHost(wall, jobs)}
	for _, r := range results {
		h.PerRunMS = append(h.PerRunMS, float64(r.HostNS)/1e6)
	}
	b.Host = h
	return b
}

// WithKernelWall records one kernel's sweep wall time in the host block
// (creating the block if WithHost was not called). Returns b for chaining.
func (b *Bench) WithKernelWall(kernel string, wall time.Duration) *Bench {
	if b.Host == nil {
		b.Host = &BenchHost{}
	}
	if b.Host.KernelWallMS == nil {
		b.Host.KernelWallMS = make(map[string]float64, 2)
	}
	b.Host.KernelWallMS[kernel] = float64(wall.Nanoseconds()) / 1e6
	return b
}

// DeterministicPayload renders the artifact's deterministic half — schema,
// name, budgets, and every run — as indented JSON, excluding the Host block.
// benchtable -comparekernels compares stepped-vs-fast payloads byte-for-byte
// with this; the runner determinism tests compare serial-vs-parallel the
// same way.
func (b *Bench) DeterministicPayload() ([]byte, error) {
	stripped := *b
	stripped.Host = nil
	out, err := json.MarshalIndent(&stripped, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runner: marshaling bench payload: %w", err)
	}
	return out, nil
}

// WriteBenchJSON writes the artifact as indented JSON. Output is
// deterministic for a deterministic Bench: struct fields emit in declaration
// order and map keys are sorted by encoding/json.
func WriteBenchJSON(w io.Writer, b *Bench) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return fmt.Errorf("runner: writing bench JSON: %w", err)
	}
	return nil
}

// ReadBenchJSON parses an artifact and validates its schema tag.
func ReadBenchJSON(r io.Reader) (*Bench, error) {
	var b Bench
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("runner: reading bench JSON: %w", err)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("runner: bench JSON schema %q, want %q", b.Schema, BenchSchema)
	}
	return &b, nil
}

// RunKey identifies a run across artifacts for comparison.
func (r BenchRun) RunKey() string {
	return fmt.Sprintf("%s/%s/%s/seed%d", r.Workload, r.Defense, r.Consistency, r.FaultSeed)
}

// SortedRunKeys returns every run's key in deterministic (sorted) order,
// for stable comparison reports.
func (b *Bench) SortedRunKeys() []string {
	keys := make([]string, 0, len(b.Runs))
	for _, r := range b.Runs {
		keys = append(keys, r.RunKey())
	}
	sort.Strings(keys)
	return keys
}

// RunsByKey indexes the artifact's runs.
func (b *Bench) RunsByKey() map[string]BenchRun {
	m := make(map[string]BenchRun, len(b.Runs))
	for _, r := range b.Runs {
		m[r.RunKey()] = r
	}
	return m
}
