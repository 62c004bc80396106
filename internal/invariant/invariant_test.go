package invariant_test

import (
	"errors"
	"strings"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/invariant"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
)

// sharedCounterProg builds a program that read-modify-writes a shared
// counter iters times, then halts. Running it on two cores produces heavy
// coherence traffic (GetS/GetX ping-pong, L1 invalidations, LLC activity).
func sharedCounterProg(addr uint64, iters uint64) *isa.Program {
	return isa.NewBuilder("ctr").
		Li(1, addr).Li(9, iters).
		Label("l").
		Ld(8, 2, 1, 0).
		AddI(2, 2, 1).
		St(8, 1, 0, 2).
		AddI(9, 9, -1).
		Bne(9, 0, "l").
		Halt().MustBuild()
}

func newMachine(t *testing.T, d config.Defense) *sim.Machine {
	t.Helper()
	const shared = 0x20000
	progs := []*isa.Program{
		sharedCounterProg(shared, 300),
		sharedCounterProg(shared, 300),
	}
	r := config.Run{Machine: config.Default(len(progs)), Defense: d, Consistency: config.TSO}
	return sim.MustNew(r, progs)
}

// A contended two-core run must hold every invariant at a tight check
// stride, under both a baseline and an InvisiSpec configuration.
func TestCleanRunHoldsInvariants(t *testing.T) {
	for _, d := range []config.Defense{config.Base, config.ISSpectre} {
		m := newMachine(t, d)
		reg := m.EnableChecking(invariant.Options{Interval: 64, WatchdogK: 50000})
		if len(reg.Checkers()) < 7 {
			t.Fatalf("standard registry has %d checkers: %v", len(reg.Checkers()), reg.Checkers())
		}
		if err := m.RunToCompletion(6_000_000); err != nil {
			t.Fatalf("%v: clean run failed checking: %v", d, err)
		}
		if err := m.CheckNow(); err != nil {
			t.Fatalf("%v: final sweep failed: %v", d, err)
		}
	}
}

// A clean run with fault injection enabled must still hold every invariant:
// faults stretch timing but never break the protocol.
func TestFaultyRunHoldsInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		m := newMachine(t, config.ISSpectre)
		m.SeedFaults(seed)
		m.EnableChecking(invariant.Options{Interval: 64, WatchdogK: 100000})
		if err := m.RunToCompletion(12_000_000); err != nil {
			t.Fatalf("seed %d: faulty run failed checking: %v", seed, err)
		}
		if m.FaultStats().MaxSlip == 0 {
			t.Fatalf("seed %d: fault injector never fired", seed)
		}
	}
}

// Mutation self-test 1: a leaked MSHR entry (live for a line the L1D
// already holds, as a fill that forgot to free it leaves one) must trip the
// mshr-conservation checker with a dump attached.
func TestMutationMSHRLeakCaught(t *testing.T) {
	m := newMachine(t, config.Base)
	m.EnableChecking(invariant.Options{Interval: 64})
	if err := m.RunInstructions(100, 1_000_000); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	m.Hier.InjectMSHRLeak(0)
	err := m.CheckNow()
	assertViolation(t, err, "mshr-conservation")
}

// Mutation self-test 2: the same line installed Modified in two L1Ds must
// trip the single-writer checker.
func TestMutationDuplicateMCaught(t *testing.T) {
	m := newMachine(t, config.Base)
	m.EnableChecking(invariant.Options{Interval: 64})
	if err := m.RunInstructions(100, 1_000_000); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	m.Hier.InjectDuplicateM(0, 1, 0x90000)
	err := m.CheckNow()
	assertViolation(t, err, "coherence-swmr")
}

// Mutation self-test 3: stalling every core's retirement stage must trip the
// forward-progress watchdog with a typed DeadlockError carrying per-core
// progress and a machine dump — under BOTH simulation kernels. The fast
// kernel fast-forwards through the wedged machine's idle windows (capped at
// the sweep stride), so this also proves a skipped-over stall is not
// mistaken for progress, and that detection lands on the identical cycle.
func TestMutationRetireStallCaught(t *testing.T) {
	var steppedErr, fastErr string
	for _, k := range []engine.Kernel{engine.KernelStepped, engine.KernelFast} {
		m := newMachine(t, config.Base)
		m.SetKernel(k)
		m.EnableChecking(invariant.Options{Interval: 64, WatchdogK: 3000})
		for _, c := range m.Cores {
			c.InjectRetireStall()
		}
		err := m.RunToCompletion(1_000_000)
		if err == nil {
			t.Fatalf("%v: stalled machine ran to completion", k)
		}
		if !errors.Is(err, invariant.ErrDeadlock) {
			t.Fatalf("%v: expected ErrDeadlock, got: %v", k, err)
		}
		var de *invariant.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("%v: expected *DeadlockError, got %T", k, err)
		}
		if de.Window < 3000 {
			t.Fatalf("%v: deadlock window %d below configured K", k, de.Window)
		}
		if len(de.Retired) != 2 || len(de.PCs) != 2 {
			t.Fatalf("%v: deadlock snapshot incomplete: %+v", k, de)
		}
		if de.Dump == "" || !strings.Contains(de.Dump, "machine dump") {
			t.Fatalf("%v: deadlock dump missing: %q", k, de.Dump)
		}
		// The machine dump must carry the fast-forward counters so a deadlock
		// report shows whether the kernel was jumping idle windows when the
		// watchdog fired — under the fast kernel the stalled machine must
		// have jumped, under the stepped kernel the counters must stay zero.
		if !strings.Contains(de.Dump, "fast-forward:") {
			t.Fatalf("%v: deadlock dump missing fast-forward stats:\n%s", k, de.Dump)
		}
		if k == engine.KernelFast {
			if de.FFJumps == 0 || de.FFSkipped == 0 {
				t.Fatalf("fast kernel DeadlockError missing FF stats: jumps=%d skipped=%d", de.FFJumps, de.FFSkipped)
			}
		} else if de.FFJumps != 0 || de.FFSkipped != 0 {
			t.Fatalf("stepped kernel reported fast-forward activity: jumps=%d skipped=%d", de.FFJumps, de.FFSkipped)
		}
		if k == engine.KernelStepped {
			steppedErr = err.Error()
		} else {
			fastErr = err.Error()
		}
	}
	if steppedErr != fastErr {
		t.Fatalf("watchdog detection diverges between kernels:\nstepped: %s\nfast:    %s",
			steppedErr, fastErr)
	}
}

// A fully wedged machine under the fast kernel must not burn host time
// stepping dead cycles: with no checker stride to land on, the scheduler
// jumps straight between sweep boundaries, so detection needs only
// O(WatchdogK / Interval) ticks. This asserts the jumps actually happen in
// the stalled scenario (the behavioral half is TestMutationRetireStallCaught).
func TestRetireStallFastForwardEngages(t *testing.T) {
	m := newMachine(t, config.Base)
	m.EnableChecking(invariant.Options{Interval: 64, WatchdogK: 3000})
	for _, c := range m.Cores {
		c.InjectRetireStall()
	}
	if err := m.RunToCompletion(1_000_000); !errors.Is(err, invariant.ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got: %v", err)
	}
	jumps, skipped := m.FastForwardStats()
	if jumps == 0 || skipped == 0 {
		t.Fatalf("fast kernel never jumped across the stalled machine (jumps=%d skipped=%d)", jumps, skipped)
	}
}

// A violation surfaces out of the run loop itself (not only via CheckNow).
func TestViolationAbortsRunLoop(t *testing.T) {
	m := newMachine(t, config.Base)
	m.EnableChecking(invariant.Options{Interval: 64})
	if err := m.RunInstructions(50, 1_000_000); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	m.Hier.InjectDuplicateM(0, 1, 0x91000)
	err := m.RunToCompletion(6_000_000)
	assertViolation(t, err, "coherence-swmr")
}

// The watchdog must stay quiet across a legitimate completion, including the
// final sweep where every core is halted.
func TestWatchdogQuietWhenDone(t *testing.T) {
	m := newMachine(t, config.Base)
	m.EnableChecking(invariant.Options{Interval: 64, WatchdogK: 1000})
	if err := m.RunToCompletion(6_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := m.CheckNow(); err != nil {
			t.Fatalf("post-completion sweep %d: %v", i, err)
		}
	}
}

func assertViolation(t *testing.T, err error, checker string) {
	t.Helper()
	if err == nil {
		t.Fatal("seeded bug not caught")
	}
	if !errors.Is(err, invariant.ErrViolation) {
		t.Fatalf("expected ErrViolation, got: %v", err)
	}
	var ve *invariant.ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("expected *ViolationError, got %T", err)
	}
	if ve.Checker != checker {
		t.Fatalf("violation attributed to %q, want %q: %v", ve.Checker, checker, ve)
	}
	if ve.Dump == "" || !strings.Contains(ve.Dump, "machine dump") {
		t.Fatalf("violation dump missing: %q", ve.Dump)
	}
	if ve.Err == nil || ve.Err.Error() == "" {
		t.Fatal("violation has no diagnostic message")
	}
}
