package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/isa"
	"invisispec/internal/leakage"
	"invisispec/internal/runner"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

// leakScan is the leakage scanner's path: leakage.Scan over a corpus under
// every defense, three trials per cell, trials 1 and 2 with fault
// injection, run to completion.
type leakScan struct{}

// leakWorkers is one, as for the sweeps: with two workers on a 2-vCPU host
// the scan's time depends on whatever else the host runs on the second
// CPU.
const (
	leakTrials    = 3
	leakWorkers   = 1
	leakMaxCycles = 30_000_000
)

// Secrets are drawn from [leakSecretLo, leakSecretHi]. Every secret in
// that range gives every SmokeCorpus variant under every defense its
// expected verdict; outside it some cells are not (bench/README.md lists
// them).
const (
	leakSecretLo = 98
	leakSecretHi = 126
)

// leakVariants picks from SmokeCorpus one same-thread Spectre, the
// cross-thread (2-core) placement, Meltdown, Spectre v2 through the BTB, and
// speculative store bypass: five attack classes whose trials differ in
// length, core count and which defenses stop them.
var leakVariants = []int{0, 3, 5, 6, 8}

// leakCorpus draws each variant's secret from the seed. The secret decides
// which probe line the attack must light up, so each seed checks the
// recovery of other bytes while the work per trial, and so the timing,
// stays nearly the same. The ID names the variant and the secret; trial
// fault seeds derive from it.
func leakCorpus(seed int64) []leakage.AttackSpec {
	rng := rand.New(rand.NewSource(seed))
	smoke := leakage.SmokeCorpus()
	specs := make([]leakage.AttackSpec, len(leakVariants))
	for i, v := range leakVariants {
		s := smoke[v]
		s.Secret = byte(leakSecretLo + rng.Intn(leakSecretHi-leakSecretLo+1))
		s.ID = fmt.Sprintf("%s-v%d-s%d", s.Template, v, s.Secret)
		specs[i] = s
	}
	return specs
}

// leakCell is one (attack, defense) cell of the verdict matrix.
type leakCell struct {
	spec    leakage.AttackSpec
	defense config.Defense
}

func (c leakCell) run() config.Run {
	return config.Run{Machine: c.spec.Machine(), Defense: c.defense, Consistency: config.TSO}
}

func (c leakCell) describe() (config.Run, []*isa.Program, error) {
	progs, err := c.spec.Programs()
	return c.run(), progs, err
}

// leakCells lists the matrix in Scan's order: attack-major, defense-minor.
func leakCells(specs []leakage.AttackSpec, defenses []config.Defense) []leakCell {
	var cells []leakCell
	for _, s := range specs {
		for _, d := range defenses {
			cells = append(cells, leakCell{s, d})
		}
	}
	return cells
}

func (l leakScan) run(r *run) error {
	setWorkers(leakWorkers)
	specs := leakCorpus(r.seed)
	defenses := config.AllDefenses()
	cells := leakCells(specs, defenses)
	warm := leakage.TrialSpec{Attack: specs[0], Defense: defenses[0], MaxCycles: leakMaxCycles}
	if _, err := leakage.RunTrialSpec(r.ctx, warm); err != nil {
		return fmt.Errorf("warm-up trial: %w", err)
	}
	if r.trace {
		return l.runTraced(r, specs, defenses, cells)
	}
	builds := make([]cellBuild, len(cells))
	for i, c := range cells {
		builds[i] = cellBuild{group: c.spec.ID, build: func() (*sim.Machine, error) {
			run, progs, err := c.describe()
			if err != nil {
				return nil, err
			}
			return sim.New(run, progs)
		}}
	}
	if err := r.measureMachine(builds); err != nil {
		return err
	}

	var fast []*scanPass
	var stepped []steppedPass
	var setup []float64
	err := r.measureLoop(func() error {
		rounds, err := r.setupRounds(builds)
		if err != nil {
			return err
		}
		p, err := scan(r, specs, defenses)
		if err != nil {
			return err
		}
		var st steppedPass
		st.speed, err = r.timed(func() (err error) {
			st.trials, err = runStepped(r.ctx, cells)
			return err
		})
		if err != nil {
			return err
		}
		setup = append(setup, rounds...)
		fast, stepped = append(fast, p), append(stepped, st)
		return nil
	})
	if err != nil {
		return err
	}

	checkVerdicts(r, fast[0])
	for _, p := range fast[1:] {
		for i, c := range p.report.Cells {
			r.checks.check(jsonEqual(fast[0].report.Cells[i], c), "%s/%s: repeated scan gave another cell", c.Attack, c.Defense)
		}
	}
	var retired uint64
	for _, st := range stepped[0].trials {
		retired += st.retired
	}
	var steppedNS [][]float64
	for _, round := range stepped {
		ns := make([]int64, len(round.trials))
		for i, st := range round.trials {
			r.checks.check(st.err == nil && slices.Equal(st.lat, fast[0].lat[i*leakTrials]) && st.retired == stepped[0].trials[i].retired,
				"%s/%s: stepped-kernel trial differs from the fast trial%s", cells[i].spec.ID, cells[i].defense, errText(st.err))
			ns[i] = st.ns
		}
		steppedNS = append(steppedNS, scaled(ns, round.speed))
	}

	var walls, rawWalls []float64
	var fastNS, fastFaultFree [][]float64
	var mem []memDelta
	for _, p := range fast {
		walls = append(walls, p.wall.Seconds()/p.speed)
		rawWalls = append(rawWalls, p.wall.Seconds())
		trials := scaled(p.cellNS, p.speed)
		fastNS = append(fastNS, trials)
		ns := make([]float64, len(cells))
		for i := range cells {
			ns[i] = trials[i*leakTrials]
		}
		fastFaultFree = append(fastFaultFree, ns)
		mem = append(mem, p.mem)
	}
	r.set("wall_s", median(walls), "s")
	// Fault-injected trials retire a timing-dependent number of
	// instructions, so throughput counts the fault-free trials, whose
	// retired count the stepped pass measures.
	r.set("sim_instr_per_s", ratio(float64(retired), sum(cellMedians(fastFaultFree))/1e9), "instr/s")
	r.set("stepped_sim_instr_per_s", ratio(float64(retired), sum(cellMedians(steppedNS))/1e9), "instr/s")
	r.setSetup(setup)
	r.setHeap(mem)
	r.setCellTimes(fastNS)
	r.noteHost(rawWalls)
	r.samples["trials_per_pass"] = len(cells) * leakTrials
	return nil
}

// checkVerdicts checks every verdict against the defense-outcome matrix,
// as the leakscan gate does.
func checkVerdicts(r *run, p *scanPass) {
	for _, c := range p.report.Cells {
		r.checks.check(!c.Violation, "%s/%s: verdict %s, expected %s, recovered byte %d of secret %d%s",
			c.Attack, c.Defense, c.Verdict, c.Expected, c.RecoveredByte, c.Secret, errSuffix(c.Error))
	}
}

// scanPass is one leakage.Scan over the corpus.
type scanPass struct {
	wall   time.Duration // the whole Scan call
	report *leakage.Report
	cellNS []int64    // trial bodies, in Scan's cell order
	lat    [][]uint64 // each trial's probe-line latencies
	speed  float64    // the host's slowdown over the scan
	mem    memDelta
}

type trialKey struct {
	attack  string
	defense config.Defense
	trial   int
}

func scan(r *run, specs []leakage.AttackSpec, defenses []config.Defense) (*scanPass, error) {
	index := map[trialKey]int{}
	for _, s := range specs {
		for _, d := range defenses {
			for t := 0; t < leakTrials; t++ {
				index[trialKey{s.ID, d, t}] = len(index)
			}
		}
	}
	p := &scanPass{cellNS: make([]int64, len(index)), lat: make([][]uint64, len(index))}
	opts := leakage.ScanOptions{
		Defenses: defenses, Trials: leakTrials, Jobs: leakWorkers, MaxCycles: leakMaxCycles, Name: "hostbench",
		Campaign: campaign.Options{Exec: timedExec(func(c campaign.Cell, ns int64, v any) error {
			ts, ok := c.Spec.(leakage.TrialSpec)
			if !ok {
				return fmt.Errorf("cell %s: spec is %T, not a leakage.TrialSpec", c.Name, c.Spec)
			}
			i, ok := index[trialKey{ts.Attack.ID, ts.Defense, ts.Trial}]
			if !ok {
				return fmt.Errorf("cell %s is not in the corpus", c.Name)
			}
			p.cellNS[i] = ns
			p.lat[i], _ = v.([]uint64)
			return nil
		})},
	}
	var err error
	p.speed, err = r.timed(func() error {
		m0 := readMem()
		start := time.Now()
		rep, err := leakage.Scan(r.ctx, specs, opts)
		if err != nil {
			return err
		}
		p.wall = time.Since(start)
		p.mem = readMem().since(m0)
		p.report = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// steppedPass is every cell's fault-free trial re-run under the stepped
// kernel, in cell order.
type steppedPass struct {
	trials []steppedTrial
	speed  float64 // the host's slowdown over the pass
}

// steppedTrial is one fault-free trial re-run under the stepped kernel.
type steppedTrial struct {
	lat     []uint64
	retired uint64
	ns      int64
	err     error
}

// runStepped re-runs every cell's fault-free trial under the stepped
// kernel, through harness.Complete as the scanner's trial body does.
func runStepped(ctx context.Context, cells []leakCell) ([]steppedTrial, error) {
	tasks := make([]runner.Task, len(cells))
	for i, c := range cells {
		tasks[i] = runner.Task{Name: c.spec.ID + "/" + c.defense.String(), Run: func(ctx context.Context) (any, error) {
			start := time.Now()
			progs, err := c.spec.Programs()
			if err != nil {
				return nil, err
			}
			m, err := harness.Complete(c.run(), c.spec.ID, progs, leakMaxCycles,
				harness.WithContext(ctx), harness.WithKernel(engine.KernelStepped))
			if err != nil {
				return nil, err
			}
			lat := workload.ScanLatencies(m.Mem, c.spec.ResultsBase(), c.spec.ResultLines())
			return steppedTrial{lat: lat, retired: m.Stats.TotalRetired(), ns: time.Since(start).Nanoseconds()}, nil
		}}
	}
	out := make([]steppedTrial, len(cells))
	for i, tr := range runner.RunTasks(ctx, tasks, runner.Options{Jobs: leakWorkers}) {
		if tr.Err != nil {
			out[i].err = tr.Err
			continue
		}
		out[i] = tr.Value.(steppedTrial)
	}
	return out, ctx.Err()
}

// runTraced runs one untraced scan as the reference, then traced passes
// that rebuild every cell's fault-free trial from parts; each traced trial
// must reproduce its untraced latencies.
func (l leakScan) runTraced(r *run, specs []leakage.AttackSpec, defenses []config.Defense, cells []leakCell) error {
	ref, err := scan(r, specs, defenses)
	if err != nil {
		return err
	}
	checkVerdicts(r, ref)
	var analyze time.Duration
	for i, c := range ref.report.Cells {
		trials := ref.lat[i*leakTrials : (i+1)*leakTrials]
		start := time.Now()
		a := leakage.Analyze(trials, c.Secret, ref.report.Thresholds)
		analyze += time.Since(start)
		r.checks.check(a.Verdict == c.Verdict, "%s/%s: Analyze on the collected latencies gives %s, the scan %s",
			c.Attack, c.Defense, a.Verdict, c.Verdict)
	}
	passes, err := r.tracedPasses(func() *layerPass { return tracedScan(r, cells, ref) })
	if err != nil {
		return err
	}
	r.setLayers(passes)
	r.setGo(ref.mem)
	r.setCampaignOverhead(ref.wall, ref.cellNS, leakWorkers)
	r.set("leakage.trial_s", float64(sum(ref.cellNS))/1e9, "s")
	r.set("leakage.trial_ms_p50", median(nsToMS(ref.cellNS)), "ms")
	r.set("leakage.analyze_s", analyze.Seconds(), "s")
	return nil
}

func tracedScan(r *run, cells []leakCell, ref *scanPass) *layerPass {
	lp := &layerPass{}
	pass := r.spans.start("traced pass", 0)
	for i, c := range cells {
		span := r.spans.start(c.spec.ID+"/"+c.defense.String(), pass)
		lat, err := tracedTrial(r, span, c, lp)
		lp.tracedNS += r.spans.end(span).Nanoseconds()
		lp.untracedNS += ref.cellNS[i*leakTrials]
		r.checks.check(err == nil && slices.Equal(lat, ref.lat[i*leakTrials]),
			"%s/%s: traced trial latencies differ from the untraced trial%s", c.spec.ID, c.defense, errText(err))
	}
	r.spans.end(pass)
	return lp
}

// tracedTrial runs a fault-free trial to completion as harness.Complete
// does, on a traced machine, and returns its probe-line latencies.
func tracedTrial(r *run, span int, c leakCell, lp *layerPass) ([]uint64, error) {
	m, st, err := buildTraced(r.spans, span, c.describe)
	if err != nil {
		return nil, err
	}
	if err := m.window(r.spans, span, "run", func() error { return m.runToCompletion(leakMaxCycles) }); err != nil {
		return nil, err
	}
	lp.addCell(m, st)
	return workload.ScanLatencies(m.mem, c.spec.ResultsBase(), c.spec.ResultLines()), nil
}
