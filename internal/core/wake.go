package core

// This file implements the engine.Component quiescence side of the core.
// NextWake does not predict what the next tick would do; it reads what this
// cycle's tick did. Every stage calls markActive where it changes the
// core's state, and wherever it attempts a hier.Submit (a refused Submit is
// retried next cycle); the hierarchy callbacks mark the cycle they land in.
// A cycle with no mark left the core as it found it, so every later tick
// repeats it until a hierarchy callback arrives (the hierarchy's own
// NextWake bounds those) or a comparison against the clock turns over. The
// stages make exactly four such comparisons, and NextWake returns the
// earliest of them:
//
//   - fetch waits for fetchResumeAt (the redirect penalty);
//   - retire takes a timer interrupt on each InterruptInterval boundary
//     while the ROB is occupied;
//   - completeExec completes an executing entry at its execDoneAt;
//   - translateStep finishes a page walk at its walkDoneAt (a walking
//     entry is untranslated, so it is in the LQ work mask).
//
// A stage that adds a comparison against c.now must add its timer here.
// TestWakeAudit holds NextWake to this: under the stepped kernel, a core's
// ticks inside a window it promised to idle (ended early by a callback) must
// leave its state unchanged apart from the counters SkipIdle replays.

// NeverWake mirrors engine.Never ("waiting on an external response only")
// without importing the engine package: core sits below the kernel layer.
const NeverWake = ^uint64(0)

// markActive records that the core's state changed in the current cycle.
// Bulk counters (Cycles, ValidationStall) are not activity.
func (c *Core) markActive() { c.lastActive = c.now }

// NextWake reports the earliest cycle > now at which this core could do
// non-trivial work, assuming no memory response arrives before then (the
// hierarchy's own NextWake bounds response arrivals). It is side-effect-free
// apart from a memo of the timer minimum, which holds while c.now stays where
// the computation found it: every tick moves c.now, and a callback marks the
// core, so NextWake answers busy without the memo until the next tick.
func (c *Core) NextWake(now uint64) uint64 {
	if c.lastActive >= now {
		return now + 1
	}
	if c.halted {
		return NeverWake
	}
	if c.timersAt != c.now || c.timers == 0 {
		wake := NeverWake
		if c.fetchResumeAt > now {
			wake = c.fetchResumeAt
		}
		if ii := uint64(c.cfg.InterruptInterval); ii > 0 && c.robCnt > 0 {
			wake = min(wake, now+ii-now%ii)
		}
		for _, phys := range c.executing {
			wake = min(wake, c.rob[phys].execDoneAt)
		}
		for i := nextBit(c.lqWork, 0, len(c.lq)); i < len(c.lq); i = nextBit(c.lqWork, i+1, len(c.lq)) {
			if e := &c.lq[i]; e.walking {
				wake = min(wake, e.walkDoneAt)
			}
		}
		c.timers, c.timersAt = wake, c.now
	}
	if c.timers <= now {
		// Defensive clamp: a timer due "in the past" means a stage did not
		// act on it; treat the core as busy.
		return now + 1
	}
	return c.timers
}

// SkipIdle advances the per-cycle counters by k cycles the kernel credited
// instead of ticking. It credits a core only after a tick in which it did
// nothing, so each credited cycle repeats that tick: a cycle for a running
// core, and a validation-stall cycle when that tick's retire counted one.
func (c *Core) SkipIdle(k uint64) {
	if c.halted {
		return
	}
	c.st.Cycles += k
	if c.valStallCounted {
		c.st.ValidationStall += k
	}
}
