// Package sim is the top-level simulation assembly: it builds the cores,
// the memory hierarchy and the functional memory image into a Machine and
// drives them through the internal/engine kernel, deterministically
// (component tick order is fixed; there is no wall-clock or random input
// anywhere in the simulator). Two kernels are available (see SetKernel):
// the cycle-by-cycle reference stepper, and the default quiescence-aware
// fast-forward scheduler, which jumps over globally-idle windows and credits
// idle cores instead of ticking them, while producing byte-identical
// statistics — the kernel-equivalence tests in this package hold the two to
// the same stats fingerprint across the smoke matrix, under fault seeds,
// with invariant checking enabled, and on the two-core attacks.
package sim

import (
	"context"
	"errors"
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/core"
	"invisispec/internal/engine"
	"invisispec/internal/faultinject"
	"invisispec/internal/invariant"
	"invisispec/internal/isa"
	"invisispec/internal/memsys"
	"invisispec/internal/stats"
)

// ErrCycleBudget is returned when a run does not finish within its budget.
// Returned errors are *BudgetError values wrapping this sentinel, so callers
// can either errors.Is-match the condition or errors.As-extract the per-core
// progress snapshot.
var ErrCycleBudget = errors.New("sim: cycle budget exhausted")

// BudgetError is a cycle-budget exhaustion with enough per-core progress
// context (retired counts, PCs) to diagnose which core stopped making
// progress without rerunning the simulation.
type BudgetError struct {
	Cycle   uint64   // cycle at which the budget ran out
	Budget  uint64   // the configured budget
	Retired []uint64 // per-core retired instruction counts
	PCs     []int    // per-core fetch PCs
	Halted  []bool   // per-core halt flags
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: cycle budget exhausted at cycle %d (budget %d; retired=%v pcs=%v halted=%v)",
		e.Cycle, e.Budget, e.Retired, e.PCs, e.Halted)
}

// Unwrap makes errors.Is(err, ErrCycleBudget) true.
func (e *BudgetError) Unwrap() error { return ErrCycleBudget }

// Machine is one simulated system executing a set of per-core programs.
type Machine struct {
	Run   config.Run
	Mem   *isa.Memory
	Hier  *memsys.Hierarchy
	Cores []*core.Core
	Stats *stats.Machine

	cycle   uint64
	kernel  engine.Kernel
	eng     engine.Stepper
	checker *invariant.Registry
	faults  *faultinject.Injector

	// nextCtxPoll is the next cycle at (or after) which the run loops poll
	// the context. A monotone threshold rather than a modulo so fast-forward
	// jumps cannot hop over poll points indefinitely.
	nextCtxPoll uint64
}

// New builds a machine running progs[i] on core i. len(progs) must equal
// the configured core count; every program's data image is loaded into the
// shared functional memory.
func New(run config.Run, progs []*isa.Program) (*Machine, error) {
	if err := run.Machine.Validate(); err != nil {
		return nil, err
	}
	if _, err := run.Defense.Scheme(); err != nil {
		// Unregistered defense names fail here, before core construction
		// (core.New resolves the scheme with MustScheme and would panic).
		return nil, err
	}
	if len(progs) != run.Machine.Cores {
		return nil, fmt.Errorf("sim: %d programs for %d cores", len(progs), run.Machine.Cores)
	}
	st := stats.NewMachine(run.Machine.Cores)
	mem := isa.NewMemory()
	hier := memsys.New(run.Machine, st)
	m := &Machine{Run: run, Mem: mem, Hier: hier, Stats: st}
	for i, p := range progs {
		mem.LoadProgramImage(p)
		m.Cores = append(m.Cores, core.New(i, run, p, mem, hier, &st.Cores[i]))
	}
	m.SetKernel(engine.KernelFast)
	return m, nil
}

// MustNew is New that panics on configuration errors (for tests/examples
// with static configs).
func MustNew(run config.Run, progs []*isa.Program) *Machine {
	m, err := New(run, progs)
	if err != nil {
		panic(err)
	}
	return m
}

// Cycle returns the current cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// SetKernel selects the simulation kernel (engine.KernelFast by default).
// Both kernels tick the hierarchy first (delivering the cycle's responses),
// then visit each core in index order; the fast kernel additionally jumps
// the clock over windows where every component reports quiescence, and
// credits a core that is not due instead of ticking it. Switching kernels
// mid-run is allowed and keeps the current cycle position.
func (m *Machine) SetKernel(k engine.Kernel) {
	m.kernel = k
	comps := make([]engine.Component, 0, len(m.Cores)+1)
	comps = append(comps, m.Hier)
	for _, c := range m.Cores {
		comps = append(comps, c)
	}
	m.eng = engine.NewStepper(k, m.cycle, comps...)
}

// Kernel returns the active simulation kernel.
func (m *Machine) Kernel() engine.Kernel { return m.kernel }

// FastForwardStats reports how many clock jumps the fast kernel performed
// and how many idle cycles they skipped (both zero under the reference
// stepper). Diagnostics only; not part of simulated state.
func (m *Machine) FastForwardStats() (jumps, skippedCycles uint64) {
	if s, ok := m.eng.(*engine.Scheduler); ok {
		return s.SkipStats()
	}
	return 0, 0
}

// Step advances the machine exactly one cycle (no fast-forwarding,
// regardless of kernel): hierarchy first, then each core in index order,
// which the fast kernel credits instead of ticking when it is not due.
// Manual driver loops (tracing, tests) rely on the single-cycle guarantee.
func (m *Machine) Step() {
	m.cycle = m.eng.StepTo(m.cycle + 1)
	m.Stats.Cycles = m.cycle
}

// advance moves time forward by at least one cycle, letting the fast kernel
// jump idle windows. Jumps are capped at every boundary whose side effects
// must land on exact cycles: the caller's cycle budget, and the invariant
// checker's sweep stride (so sweeps — and the forward-progress watchdog's
// windows — observe identical cycles under both kernels).
func (m *Machine) advance(maxCycles uint64) {
	limit := maxCycles
	if m.checker != nil {
		iv := m.checker.Interval()
		if b := m.cycle + iv - m.cycle%iv; b < limit {
			limit = b
		}
	}
	if limit <= m.cycle {
		limit = m.cycle + 1
	}
	m.cycle = m.eng.StepTo(limit)
	m.Stats.Cycles = m.cycle
}

// Done reports whether every core has halted and all buffered work drained.
func (m *Machine) Done() bool {
	for _, c := range m.Cores {
		if c.PendingWork() {
			return false
		}
	}
	return true
}

// ctxCheckStride is how many cycles pass between context polls in the
// context-aware run loops. The simulator itself stays wall-clock-free and
// deterministic: the context only decides whether the loop keeps going, never
// what it computes, so two runs of the same machine retire identical state
// regardless of when (or whether) cancellation lands between strides.
const ctxCheckStride = 1 << 10

// RunToCompletion steps until every core halts (and write buffers drain) or
// the cycle budget runs out. With checking enabled, a failed invariant or a
// tripped forward-progress watchdog aborts the run with the typed error.
func (m *Machine) RunToCompletion(maxCycles uint64) error {
	return m.RunToCompletionCtx(context.Background(), maxCycles)
}

// RunToCompletionCtx is RunToCompletion with cooperative cancellation: the
// context is polled every ctxCheckStride cycles and a cancelled or expired
// context aborts the run with an error wrapping ctx.Err().
func (m *Machine) RunToCompletionCtx(ctx context.Context, maxCycles uint64) error {
	for !m.Done() {
		if m.cycle >= maxCycles {
			return m.budgetError(maxCycles)
		}
		if err := m.ctxTick(ctx); err != nil {
			return err
		}
		m.advance(maxCycles)
		if err := m.checkTick(); err != nil {
			return err
		}
	}
	return nil
}

// RunInstructions steps until the machine has retired at least n
// instructions in total, every core halted, or the cycle budget ran out.
// It is the fixed-work mode the figure harnesses use. With checking enabled,
// invariant violations and deadlocks abort the run like RunToCompletion.
func (m *Machine) RunInstructions(n uint64, maxCycles uint64) error {
	return m.RunInstructionsCtx(context.Background(), n, maxCycles)
}

// RunInstructionsCtx is RunInstructions with cooperative cancellation (see
// RunToCompletionCtx). The parallel experiment runner uses it to enforce
// per-job wall-clock timeouts without leaking goroutines: the deadline
// surfaces here, in the worker's own call stack.
func (m *Machine) RunInstructionsCtx(ctx context.Context, n uint64, maxCycles uint64) error {
	for m.Stats.TotalRetired() < n && !m.Done() {
		if m.cycle >= maxCycles {
			return m.budgetError(maxCycles)
		}
		if err := m.ctxTick(ctx); err != nil {
			return err
		}
		m.advance(maxCycles)
		if err := m.checkTick(); err != nil {
			return err
		}
	}
	return nil
}

// ctxTick polls the context once the monotone threshold is reached. Under
// the reference stepper this degenerates to the seed's modulo stride (every
// cycle hits the loop top, so the first cycle >= threshold is the threshold
// itself); under the fast kernel a jump that hops the threshold triggers the
// poll at the landing cycle, keeping cancellation latency bounded by one
// stride of simulated progress regardless of jump width.
func (m *Machine) ctxTick(ctx context.Context) error {
	if m.cycle < m.nextCtxPoll {
		return nil
	}
	m.nextCtxPoll = m.cycle + ctxCheckStride
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: run aborted at cycle %d: %w", m.cycle, err)
	}
	return nil
}

// budgetError snapshots per-core progress into a BudgetError.
func (m *Machine) budgetError(budget uint64) error {
	e := &BudgetError{
		Cycle: m.cycle, Budget: budget,
		Retired: make([]uint64, len(m.Cores)),
		PCs:     make([]int, len(m.Cores)),
		Halted:  make([]bool, len(m.Cores)),
	}
	for i, c := range m.Cores {
		e.Retired[i], e.PCs[i], e.Halted[i] = c.Progress()
	}
	return e
}

// EnableChecking attaches an invariant-checker registry (see
// internal/invariant) that the run loops sweep every opts.Interval cycles.
// Violations and watchdog deadlocks surface as the run's error.
func (m *Machine) EnableChecking(opts invariant.Options) *invariant.Registry {
	m.checker = invariant.NewRegistry(opts)
	return m.checker
}

// checkTick runs the invariant sweep and watchdog at the registry's stride.
func (m *Machine) checkTick() error {
	if m.checker == nil || m.cycle%m.checker.Interval() != 0 {
		return nil
	}
	return m.CheckNow()
}

// CheckNow runs the full invariant sweep and the forward-progress watchdog
// immediately, regardless of the stride. No-op without EnableChecking.
func (m *Machine) CheckNow() error {
	if m.checker == nil {
		return nil
	}
	t := &invariant.Target{Cycle: m.cycle, Run: m.Run, Cores: m.Cores, Hier: m.Hier}
	t.FFJumps, t.FFSkipped = m.FastForwardStats()
	if err := m.checker.Check(t); err != nil {
		return err
	}
	return m.checker.Watch(t, m.Done())
}

// SeedFaults installs a deterministic fault injector (see
// internal/faultinject, default rates) perturbing NoC and DRAM timing. Call
// before the first Step; the same seed reproduces the same perturbation.
func (m *Machine) SeedFaults(seed int64) {
	m.faults = faultinject.New(seed)
	m.Hier.SetFaultInjector(m.faults)
}

// FaultStats returns the injected-fault counts (zero value if SeedFaults was
// never called).
func (m *Machine) FaultStats() faultinject.Stats {
	if m.faults == nil {
		return faultinject.Stats{}
	}
	return m.faults.Stats()
}
