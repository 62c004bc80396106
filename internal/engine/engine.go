// Package engine is the simulation kernel: it owns the global clock and the
// order in which simulated components observe it. Two interchangeable
// steppers implement the same contract:
//
//   - ReferenceStepper is the seed's cycle-by-cycle loop: every component is
//     ticked on every cycle, in registration order. It is the golden model.
//   - Scheduler is the quiescence-aware fast-forward kernel. It lands only on
//     cycles where some component may act: when every component reports a
//     future wake cycle, the clock jumps straight to the earliest of them.
//     At each landed cycle it visits the components in registration order.
//     A component without per-cycle accounting ticks at every landing. An
//     IdleSkipper ticks only if it is due; otherwise it is credited the
//     cycles since the previous landing through SkipIdle, so its per-cycle
//     accounting (core cycle counters, stall counters) is exact after every
//     StepTo.
//
// Determinism argument. Let prev be the previous landed cycle and next the
// current one. An IdleSkipper is due at next if NextWake(prev) <= next,
// asked just before its turn (unless the landing choice already found it
// due), so that an input delivered earlier in the same landing (by a
// component ticked before it) has already made it busy. A component that is
// not due promised that its ticks in (prev, next] change nothing but bulk
// counters, so crediting it leaves the state the reference stepper reaches
// by ticking it every cycle. An input delivered after its turn makes it busy
// at the next landing, which then is next+1, the cycle the reference
// stepper's tick would act on it. The landing itself follows the same rule
// machine-wide: a jump from T to W happens only when no component can act in
// (T, W). The callers (internal/sim) additionally cap every jump at external
// boundaries that carry their own side effects: the cycle budget, and the
// invariant-checker sweep stride, so sweeps, watchdog windows and budget
// errors observe identical cycles under both kernels.
package engine

import "fmt"

// Never is the NextWake value meaning "this component will do no further
// work unless some other component's activity feeds it" (e.g. a core blocked
// on an outstanding memory response, which the hierarchy's own NextWake
// bounds).
const Never = ^uint64(0)

// Component is one simulated unit on the kernel's clock.
type Component interface {
	// Tick advances the component to cycle now. The kernel guarantees now is
	// strictly increasing across calls and that, within a cycle, components
	// are ticked in registration order. The fast kernel may credit an
	// IdleSkipper a landed cycle instead of ticking it.
	Tick(now uint64)

	// NextWake returns the earliest cycle > now at which the component could
	// perform non-trivial work, given that no other component acts before
	// then. Contract:
	//   - a return of now+1 (or anything <= now+1) means "busy or unknown":
	//     the kernel must not skip any cycles;
	//   - a return of W > now+1 asserts the component's observable state is
	//     constant over cycles (now, W) — ticking it anywhere in that open
	//     interval would be a no-op apart from bulk-accountable counters;
	//   - Never means the component is waiting on external input only.
	// NextWake must be side-effect-free (a memo is fine): the reference
	// stepper never calls it, and the fast kernel asks again at a
	// component's turn when the landing choice found it idle.
	NextWake(now uint64) uint64
}

// IdleSkipper is implemented by components with per-cycle accounting (cycle
// counters, stall counters) that must advance even across cycles they are
// not ticked on. The fast kernel ticks an IdleSkipper only on landed cycles
// it is due on, and calls SkipIdle(k) with k the number of cycles since the
// previous landing that the component was not ticked on: all of them when it
// is not due, all but the landed cycle itself when it is.
type IdleSkipper interface {
	SkipIdle(cycles uint64)
}

// Kernel selects a stepper implementation.
type Kernel int

// Kernels.
const (
	// KernelFast is the quiescence-aware fast-forward scheduler (default).
	KernelFast Kernel = iota
	// KernelStepped is the seed's cycle-by-cycle reference stepper.
	KernelStepped
)

// String names the kernel the way the -kernel flag spells it.
func (k Kernel) String() string {
	switch k {
	case KernelFast:
		return "fast"
	case KernelStepped:
		return "stepped"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// ParseKernel parses a -kernel flag value.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "fast":
		return KernelFast, nil
	case "stepped":
		return KernelStepped, nil
	}
	return 0, fmt.Errorf("unknown kernel %q (want stepped or fast)", s)
}

// Stepper advances the clock for a fixed set of components.
type Stepper interface {
	// StepTo advances time by at least one cycle and at most to cycle limit,
	// returning the new current cycle. The reference stepper always advances
	// exactly one cycle; the fast scheduler may land anywhere in
	// [now+1, limit]. Callers encode external side-effect boundaries (budget,
	// checker stride) by capping limit.
	StepTo(limit uint64) uint64
}

// NewStepper builds the stepper for the chosen kernel, starting at cycle
// start (the first tick happens at start+1). Components are visited in the
// given order every landed cycle.
func NewStepper(k Kernel, start uint64, comps ...Component) Stepper {
	if k == KernelStepped {
		return &ReferenceStepper{now: start, comps: comps}
	}
	n := len(comps)
	s := &Scheduler{now: start, comps: comps, skip: make([]IdleSkipper, n), wake: make([]uint64, n)}
	for i, c := range comps {
		s.skip[i], _ = c.(IdleSkipper)
	}
	return s
}

// ReferenceStepper is the golden cycle-by-cycle kernel: one tick per call,
// NextWake never consulted. It is byte-for-byte the seed's sim loop and the
// correctness oracle the fast scheduler is tested against.
type ReferenceStepper struct {
	now   uint64
	comps []Component
}

// StepTo ticks every component at now+1 (limit is ignored beyond the
// contract's minimum advance).
func (s *ReferenceStepper) StepTo(limit uint64) uint64 {
	s.now++
	for _, c := range s.comps {
		c.Tick(s.now)
	}
	return s.now
}

// Scheduler is the quiescence-aware fast-forward kernel.
type Scheduler struct {
	now   uint64
	comps []Component
	skip  []IdleSkipper // skip[i] is comps[i] as an IdleSkipper, or nil
	wake  []uint64      // wake[i] is comps[i]'s NextWake in the landing choice

	jumps   uint64
	skipped uint64
}

// SkipStats reports how many jumps the scheduler performed and how many idle
// cycles they skipped in total (diagnostics; the counters are not part of
// simulated state).
func (s *Scheduler) SkipStats() (jumps, skippedCycles uint64) {
	return s.jumps, s.skipped
}

// StepTo advances to min(earliest wake, limit) and visits every component
// at the landing cycle: it ticks those that are due and credits the rest.
// When no component reports a wake before limit, the clock lands on limit
// itself (external boundaries — budget, checker sweep — carry side effects
// of their own and must be observed exactly).
func (s *Scheduler) StepTo(limit uint64) uint64 {
	prev := s.now
	next := prev + 1
	asked := 0 // comps[:asked] answered the landing choice, in s.wake
	if limit > next {
		wake := Never
		for i, c := range s.comps {
			w := c.NextWake(prev)
			s.wake[i], asked = w, i+1
			wake = min(wake, w)
			if wake <= next {
				wake = next
				break
			}
		}
		if wake > limit {
			wake = limit
		}
		if wake > next {
			s.jumps++
			s.skipped += wake - next
			next = wake
		}
	}
	s.now = next
	for i, c := range s.comps {
		if sk := s.skip[i]; sk != nil {
			// An input only makes a component busier, so one the landing
			// choice found due is still due. One it found idle is asked
			// again: an input earlier in this landing may have woken it.
			if (i >= asked || s.wake[i] > next) && c.NextWake(prev) > next {
				sk.SkipIdle(next - prev)
				continue
			}
			if next > prev+1 {
				sk.SkipIdle(next - prev - 1)
			}
		}
		c.Tick(next)
	}
	return next
}
