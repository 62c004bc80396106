package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/isa"
	"invisispec/internal/runner"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

// sweepWorkers is the campaign pool width for sweeps, and so the number of
// CPUs a sweep run lets the Go runtime use.
const sweepWorkers = 1

// sweep is a benchmark workload made of bench-matrix cells, run through the
// path benchtable and simserver run: campaign.Run over campaign.JobCells,
// then campaign.JobResults, then runner.NewBench.
type sweep struct {
	// matrix is the fault-free cell set; every job shares one warmup and
	// measure budget. Its rows must hash to the digest in
	// bench/expected.json.
	matrix []runner.Job
}

func (s sweep) warmup() uint64  { return s.matrix[0].Warmup }
func (s sweep) measure() uint64 { return s.matrix[0].Measure }

// jobs draws the cell set from the seed: the fault-free matrix in an order
// the seed shuffles, so every seed does the same simulated work and has the
// same committed oracle.
func (s sweep) jobs(seed int64) []runner.Job {
	jobs := slices.Clone(s.matrix)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

func (s sweep) run(r *run) error {
	setWorkers(sweepWorkers)
	jobs := s.jobs(r.seed)
	if _, err := campaign.RunJobSpec(r.ctx, campaign.SpecForJob(jobs[0], engine.KernelFast)); err != nil {
		return fmt.Errorf("warm-up cell: %w", err)
	}
	if r.trace {
		return s.runTraced(r, jobs)
	}
	builds := make([]cellBuild, len(jobs))
	for i, j := range jobs {
		builds[i] = jobBuild(j)
	}
	if err := r.measureMachine(builds); err != nil {
		return err
	}

	var fast, stepped []*sweepPass
	var setup []float64
	err := r.measureLoop(func() error {
		rounds, err := r.setupRounds(builds)
		if err != nil {
			return err
		}
		f, err := s.pass(r, jobs, engine.KernelFast)
		if err != nil {
			return err
		}
		st, err := s.pass(r, jobs, engine.KernelStepped)
		if err != nil {
			return err
		}
		setup = append(setup, rounds...)
		fast, stepped = append(fast, f), append(stepped, st)
		return nil
	})
	if err != nil {
		return err
	}

	for _, p := range fast[1:] {
		compareRows(r, "repeated fast pass", fast[0], p)
	}
	for _, p := range stepped {
		compareRows(r, "stepped kernel", fast[0], p)
	}
	if err := s.checkReference(r, fast[0]); err != nil {
		return err
	}

	var walls, rawWalls []float64
	var fastNS, steppedNS [][]float64
	var mem []memDelta
	for i, f := range fast {
		walls = append(walls, f.wall.Seconds()/f.speed)
		rawWalls = append(rawWalls, f.wall.Seconds())
		fastNS = append(fastNS, scaled(f.cellNS, f.speed))
		steppedNS = append(steppedNS, scaled(stepped[i].cellNS, stepped[i].speed))
		mem = append(mem, f.mem)
	}
	r.set("wall_s", median(walls), "s")
	r.set("sim_instr_per_s", fast[0].instrPerSec(cellMedians(fastNS)), "instr/s")
	r.set("stepped_sim_instr_per_s", fast[0].instrPerSec(cellMedians(steppedNS)), "instr/s")
	r.setSetup(setup)
	r.setHeap(mem)
	r.setCellTimes(fastNS)
	r.noteHost(rawWalls)
	r.samples["cells_per_pass"] = len(jobs)
	return nil
}

// jobBuild builds a job's machine as harness.MeasureWorkload does.
func jobBuild(j runner.Job) cellBuild {
	return cellBuild{group: j.Workload, build: func() (*sim.Machine, error) {
		run, progs, err := jobMachine(j)
		if err != nil {
			return nil, err
		}
		return sim.New(run, progs)
	}}
}

// jobMachine resolves a job's machine configuration and programs through
// the workload registry, as harness.MeasureWorkload does.
func jobMachine(j runner.Job) (config.Run, []*isa.Program, error) {
	w, err := workload.Lookup(j.Workload)
	if err != nil {
		return config.Run{}, nil, err
	}
	cores := w.DefaultCores()
	progs, err := w.Programs(cores)
	if err != nil {
		return config.Run{}, nil, err
	}
	return config.Run{Machine: config.Default(cores), Defense: j.Defense, Consistency: j.Consistency}, progs, nil
}

// sweepPass is one pass over a sweep's cells under one kernel.
type sweepPass struct {
	wall   time.Duration // campaign.Run through runner.NewBench
	cellNS []int64       // cell bodies, in job order
	speed  float64       // the host's slowdown over the pass
	rows   []runner.BenchRun
	warmup uint64
	mem    memDelta
}

func (s sweep) pass(r *run, jobs []runner.Job, k engine.Kernel) (*sweepPass, error) {
	cells := campaign.JobCells(jobs, k, 0)
	index := make(map[string]int, len(cells))
	for i, c := range cells {
		index[c.Name] = i
	}
	p := &sweepPass{cellNS: make([]int64, len(cells)), warmup: s.warmup()}
	opts := campaign.Options{Workers: sweepWorkers, Exec: timedExec(func(c campaign.Cell, ns int64, _ any) error {
		p.cellNS[index[c.Name]] = ns
		return nil
	})}
	var err error
	p.speed, err = r.timed(func() error {
		m0 := readMem()
		start := time.Now()
		outcomes, err := campaign.Run(r.ctx, "hostbench-"+r.workload, cells, opts)
		if err != nil {
			return err
		}
		results, err := campaign.JobResults(jobs, outcomes)
		if err != nil {
			return err
		}
		b := runner.NewBench(r.workload, s.warmup(), s.measure(), results)
		p.wall = time.Since(start)
		p.mem = readMem().since(m0)
		p.rows = b.Runs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// instrPerSec is simulated instructions (warmup plus measured window) per
// second of cell-body host time, given each cell's time in job order.
func (p *sweepPass) instrPerSec(cellNS []float64) float64 {
	var instr uint64
	var ns float64
	for i, row := range p.rows {
		if row.Error == "" {
			instr += p.warmup + row.Instructions
			ns += cellNS[i]
		}
	}
	return ratio(float64(instr), ns/1e9)
}

// compareRows checks got's rows against want's, row by row, in job order.
func compareRows(r *run, what string, want, got *sweepPass) {
	for i, row := range got.rows {
		ok := row.Error == "" && jsonEqual(want.rows[i], row)
		r.checks.check(ok, "%s: %s row differs from the first fast pass%s", row.RunKey(), what, errSuffix(row.Error))
	}
}

// jsonEqual reports whether a and b encode to the same JSON bytes, the
// byte identity the repository's artifacts are held to.
func jsonEqual(a, b any) bool {
	ab, err1 := json.Marshal(a)
	bb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ab, bb)
}

func errSuffix(e string) string {
	if e == "" {
		return ""
	}
	return ": " + e
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return errSuffix(err.Error())
}

// checkReference checks the first fast pass against the digest in
// bench/expected.json, which -write-expected records instead.
func (s sweep) checkReference(r *run, p *sweepPass) error {
	digest, err := rowsDigest(p.rows)
	if err != nil {
		return err
	}
	expected, err := readExpected()
	if err != nil {
		return err
	}
	if r.writeExpected {
		if r.checks.failed > 0 {
			return errors.New("not recording a digest for a run with failed checks")
		}
		expected[r.workload] = digest
		return writeJSON(expectedPath, expected)
	}
	want, ok := expected[r.workload]
	r.checks.check(ok && want == digest, "rows digest %s, %s has %q", digest, expectedPath, want)
	return nil
}

// rowsDigest is the sha256 of the rows' JSON, one row per line in run-key
// order, so it does not depend on the order the seed gave the cells.
func rowsDigest(rows []runner.BenchRun) (string, error) {
	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, func(a, b runner.BenchRun) int { return strings.Compare(a.RunKey(), b.RunKey()) })
	h := sha256.New()
	for _, row := range sorted {
		b, err := json.Marshal(row)
		if err != nil {
			return "", err
		}
		h.Write(append(b, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// readExpected reads bench/expected.json: workload name → rowsDigest of
// the sweep's rows.
func readExpected() (map[string]string, error) {
	b, err := os.ReadFile(expectedPath)
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return m, nil
}

// runTraced runs one untraced fast pass as the reference, then traced
// passes that rebuild every cell from parts; each traced row must equal its
// untraced row.
func (s sweep) runTraced(r *run, jobs []runner.Job) error {
	ref, err := s.pass(r, jobs, engine.KernelFast)
	if err != nil {
		return err
	}
	for _, row := range ref.rows {
		r.checks.check(row.Error == "", "%s%s", row.RunKey(), errSuffix(row.Error))
	}
	passes, err := r.tracedPasses(func() *layerPass { return s.tracedPass(r, jobs, ref) })
	if err != nil {
		return err
	}
	r.setLayers(passes)
	r.setGo(ref.mem)
	r.setCampaignOverhead(ref.wall, ref.cellNS, sweepWorkers)
	// A sweep has no leakage layer.
	r.set("leakage.trial_s", 0, "s")
	r.set("leakage.trial_ms_p50", 0, "ms")
	r.set("leakage.analyze_s", 0, "s")
	return nil
}

func (s sweep) tracedPass(r *run, jobs []runner.Job, ref *sweepPass) *layerPass {
	lp := &layerPass{}
	pass := r.spans.start("traced pass", 0)
	results := make([]runner.JobResult, len(jobs))
	for i, j := range jobs {
		cell := r.spans.start(j.String(), pass)
		res, err := s.tracedCell(r, cell, j, lp)
		lp.tracedNS += r.spans.end(cell).Nanoseconds()
		lp.untracedNS += ref.cellNS[i]
		results[i] = runner.JobResult{Job: j, Index: i, Result: res, Err: err}
	}
	r.spans.end(pass)
	b := runner.NewBench(r.workload, s.warmup(), s.measure(), results)
	for i, row := range b.Runs {
		r.checks.check(row.Error == "" && jsonEqual(ref.rows[i], row),
			"%s: traced row differs from the untraced row%s", row.RunKey(), errSuffix(row.Error))
	}
	return lp
}

// tracedCell measures one job as harness.Measure does, on a traced machine.
func (s sweep) tracedCell(r *run, cell int, j runner.Job, lp *layerPass) (harness.Result, error) {
	m, st, err := buildTraced(r.spans, cell, func() (config.Run, []*isa.Program, error) { return jobMachine(j) })
	if err != nil {
		return harness.Result{}, err
	}
	budget := (j.Warmup + j.Measure) * budgetPerInstruction
	if err := m.window(r.spans, cell, "warmup", func() error { return m.runInstructions(j.Warmup, budget) }); err != nil {
		return harness.Result{}, err
	}
	startCycles, startCore := m.cycle, m.st.Sum()
	startTraffic, startDRAM := m.st.TrafficBytes, m.st.DRAMReads
	if err := m.window(r.spans, cell, "measure", func() error { return m.runInstructions(j.Warmup+j.Measure, budget) }); err != nil {
		return harness.Result{}, err
	}
	res := harness.Result{Run: m.run, Workload: j.Workload, Cycles: m.cycle - startCycles, Core: m.st.Sum().Sub(startCore)}
	res.Instructions = res.Core.Retired
	for i := range res.Traffic {
		res.Traffic[i] = m.st.TrafficBytes[i] - startTraffic[i]
	}
	res.DRAMReads = m.st.DRAMReads - startDRAM
	if v := res.Core.LLCSBHits + res.Core.LLCSBMisses; v > 0 {
		res.LLCSBRate = float64(res.Core.LLCSBHits) / float64(v)
	}
	lp.addCell(m, st)
	return res, nil
}
