// Package harness runs measured simulations the way the paper's evaluation
// does: each workload executes under a processor configuration for a warmup
// instruction budget (analogous to the paper's 10B-instruction skip), then
// counters are snapshotted and the measured window runs (analogous to the
// paper's 1B-instruction window). Figures 4–8 and Table VI are all
// computed from the deltas this package reports.
package harness

import (
	"context"
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/core"
	"invisispec/internal/engine"
	"invisispec/internal/invariant"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
	"invisispec/internal/stats"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

// Option tunes a Measure run (hardening hooks; the default is the plain
// measurement the figures use).
type Option func(*measureOpts)

type measureOpts struct {
	check     *invariant.Options
	faultSeed *int64
	ctx       context.Context
	kernel    *engine.Kernel
}

// WithChecking enables the invariant checker and forward-progress watchdog
// for both windows (see internal/invariant).
func WithChecking(o invariant.Options) Option {
	return func(m *measureOpts) { m.check = &o }
}

// WithFaultSeed enables deterministic fault injection (see
// internal/faultinject) with the given seed.
func WithFaultSeed(seed int64) Option {
	return func(m *measureOpts) { m.faultSeed = &seed }
}

// WithContext attaches a context to the run: both windows poll it
// cooperatively (every sim.ctxCheckStride cycles) and a cancelled or expired
// context aborts the measurement with an error wrapping ctx.Err(). The
// parallel runner uses this for per-job wall-clock timeouts and sweep-wide
// cancellation; cancellation never perturbs the simulated state, only when
// the loop stops.
func WithContext(ctx context.Context) Option {
	return func(m *measureOpts) { m.ctx = ctx }
}

// WithKernel selects the simulation kernel (see internal/engine): the
// quiescence-aware fast-forward scheduler (the default) or the cycle-by-cycle
// reference stepper. The two produce byte-identical measurements — the
// kernel-equivalence tests enforce it — so this option only changes host
// wall-time; benchtable's -comparekernels mode uses it to record the
// speedup.
func WithKernel(k engine.Kernel) Option {
	return func(m *measureOpts) { m.kernel = &k }
}

// testPanicHook, when non-nil, runs inside Measure's recovery scope. The
// panic path exists to salvage diagnostics from simulator bugs, which tests
// cannot trigger on demand; the hook makes the recovery itself testable.
var testPanicHook func()

// budgetPerInstruction sizes the cycle budget per requested instruction: no
// workload in the suite exceeds a sustained CPI of 600, so exhaustion means
// the simulator (not the workload) stopped making progress. Tests shrink it
// to exercise the budget-error path.
var budgetPerInstruction uint64 = 600

// Result is one measured run.
type Result struct {
	Run      config.Run
	Workload string
	// Measured-window deltas.
	Cycles       uint64
	Instructions uint64
	Traffic      [stats.NumTrafficClasses]uint64
	Core         stats.Core // summed across cores
	DRAMReads    uint64
	LLCSBRate    float64 // LLC-SB hit rate over validations+exposures
}

// CPI returns measured cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// TotalTraffic returns measured bytes moved.
func (r Result) TotalTraffic() uint64 {
	var t uint64
	for _, v := range r.Traffic {
		t += v
	}
	return t
}

// setup is the machine construction Measure, Complete and Record share: it
// applies the options, builds the machine, selects its kernel, seeds fault
// injection and enables checking, and returns the context its run loops
// poll (context.Background() when none was given).
func setup(run config.Run, name string, progs []*isa.Program, opts []Option) (*sim.Machine, context.Context, error) {
	var mo measureOpts
	for _, o := range opts {
		o(&mo)
	}
	m, err := sim.New(run, progs)
	if err != nil {
		return nil, nil, fmt.Errorf("%s setup: %w", label(name, run), err)
	}
	if mo.kernel != nil {
		m.SetKernel(*mo.kernel)
	}
	if mo.faultSeed != nil {
		m.SeedFaults(*mo.faultSeed)
	}
	if mo.check != nil {
		m.EnableChecking(*mo.check)
	}
	ctx := mo.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return m, ctx, nil
}

// label names a run in errors: "name [defense/consistency]".
func label(name string, run config.Run) string {
	return fmt.Sprintf("%s [%v/%v]", name, run.Defense, run.Consistency)
}

// panicError converts a panic recovered from m's run into an error carrying
// the cycle it happened at and the full machine dump; where prefixes it.
func panicError(m *sim.Machine, run config.Run, where string, r any) error {
	t := &invariant.Target{Cycle: m.Cycle(), Run: run, Cores: m.Cores, Hier: m.Hier}
	t.FFJumps, t.FFSkipped = m.FastForwardStats()
	return fmt.Errorf("%s: panic at cycle %d: %v\n%s", where, t.Cycle, r, invariant.Dump(t))
}

// Measure runs progs under run for warmup+measure retired instructions and
// returns the measured-window deltas. Every error (and recovered panic) is
// annotated with the workload name, the run configuration, and which window
// — warmup or measure — it happened in, so a failing sweep pinpoints the
// offending run without rerunning. A panic inside the simulator is converted
// into an error carrying the cycle number and the full machine dump.
func Measure(run config.Run, name string, progs []*isa.Program, warmup, measure uint64, opts ...Option) (res Result, err error) {
	m, runCtx, err := setup(run, name, progs, opts)
	if err != nil {
		return Result{}, err
	}
	where := func(window string) string {
		return label(name, run) + " " + window + " window"
	}
	window := "warmup"
	defer func() {
		if r := recover(); r != nil {
			err = panicError(m, run, where(window), r)
		}
	}()
	if testPanicHook != nil {
		testPanicHook()
	}
	budget := (warmup + measure) * budgetPerInstruction
	if err := m.RunInstructionsCtx(runCtx, warmup, budget); err != nil {
		return Result{}, fmt.Errorf("%s: %w", where("warmup"), err)
	}
	startCycles := m.Cycle()
	startCore := m.Stats.Sum()
	startTraffic := m.Stats.TrafficBytes
	startDRAM := m.Stats.DRAMReads
	window = "measure"
	if err := m.RunInstructionsCtx(runCtx, warmup+measure, budget); err != nil {
		return Result{}, fmt.Errorf("%s: %w", where("measure"), err)
	}
	r := Result{
		Run:      run,
		Workload: name,
		Cycles:   m.Cycle() - startCycles,
		Core:     m.Stats.Sum().Sub(startCore),
	}
	r.Instructions = r.Core.Retired
	for i := range r.Traffic {
		r.Traffic[i] = m.Stats.TrafficBytes[i] - startTraffic[i]
	}
	r.DRAMReads = m.Stats.DRAMReads - startDRAM
	if ve := r.Core.LLCSBHits + r.Core.LLCSBMisses; ve > 0 {
		r.LLCSBRate = float64(r.Core.LLCSBHits) / float64(ve)
	}
	return r, nil
}

// Complete runs progs under run until every core halts (or maxCycles
// elapse), with the same option surface as Measure — invariant checking,
// deterministic fault injection, cooperative context cancellation — plus
// the same panic recovery and error annotation. It returns the finished
// machine so callers can extract results from its functional memory; the
// leakage scanner (internal/leakage) reads the attacker's per-probe-line
// latencies this way.
func Complete(run config.Run, name string, progs []*isa.Program, maxCycles uint64, opts ...Option) (m *sim.Machine, err error) {
	m, runCtx, err := setup(run, name, progs, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, panicError(m, run, label(name, run), r)
		}
	}()
	if testPanicHook != nil {
		testPanicHook()
	}
	if err := m.RunToCompletionCtx(runCtx, maxCycles); err != nil {
		return nil, fmt.Errorf("%s: %w", label(name, run), err)
	}
	return m, nil
}

// Record runs progs under run until every core has committed n
// instructions (or the machine halts, whichever is first) and returns the
// per-core committed streams as a replayable trace. It shares Measure's
// option surface — kernel selection matters here because the recorded
// cycles are kernel-independent only because the equivalence oracle makes
// them so; Record under both kernels is how the trace tests check that.
// When the run fails, Record returns the events committed before the
// failure together with the error.
func Record(run config.Run, name string, progs []*isa.Program, n uint64, opts ...Option) (t *trace.Trace, err error) {
	m, runCtx, err := setup(run, name, progs, opts)
	if err != nil {
		return nil, err
	}
	events := make([][]trace.Event, len(progs))
	t = &trace.Trace{Name: name, Programs: progs, Events: events}
	defer func() {
		if r := recover(); r != nil {
			err = panicError(m, run, label(name, run), r)
		}
	}()
	full := 0
	for i := range m.Cores {
		i := i
		m.Cores[i].SetTracer(func(ev core.CommitEvent) {
			if uint64(len(events[i])) < n {
				events[i] = append(events[i], trace.FromCommit(ev))
				if uint64(len(events[i])) == n {
					full++
				}
			}
		})
	}
	// Constant headroom on top of the per-instruction budget so very short
	// recordings (conformance reproducers) still cover pipeline fill.
	budget := 100_000 + n*uint64(len(progs))*budgetPerInstruction
	if err := m.RunInstructionsCtx(runCtx, n*uint64(len(progs)), budget); err != nil {
		return t, fmt.Errorf("%s record: %w", label(name, run), err)
	}
	// Unbalanced multi-core progress can leave some cores short of n while
	// the retired total is already met; top off one milestone at a time.
	for full < len(progs) && !m.Done() {
		if m.Cycle() >= budget {
			break
		}
		if err := m.RunInstructionsCtx(runCtx, m.Stats.TotalRetired()+1, budget); err != nil {
			return t, fmt.Errorf("%s record: %w", label(name, run), err)
		}
	}
	return t, nil
}

// MeasureWorkload measures any registered workload on its default machine
// size: 1 core for the SPEC kernels and attack programs, 8 for PARSEC,
// the recorded width for imported traces. It is the single resolution
// path the campaign executor, CLIs, examples and benches share — the
// per-matrix SPEC/PARSEC dispatch lives in the registry, not at call
// sites.
func MeasureWorkload(name string, d config.Defense, cm config.Consistency, warmup, measure uint64, opts ...Option) (Result, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return Result{}, err
	}
	cores := w.DefaultCores()
	progs, err := w.Programs(cores)
	if err != nil {
		return Result{}, err
	}
	run := config.Run{Machine: config.Default(cores), Defense: d, Consistency: cm}
	return Measure(run, name, progs, warmup, measure, opts...)
}
