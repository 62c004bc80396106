package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/invariant"
	"invisispec/internal/sim"
)

// The simulator must be bit-deterministic: the same (config, workload,
// windows) run twice serializes to byte-identical results.
func TestMeasureDeterministic(t *testing.T) {
	measure := func() string {
		r, err := MeasureWorkload("libquantum", config.ISSpectre, config.TSO, 3000, 8000)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", r)
	}
	a, b := measure(), measure()
	if a != b {
		t.Fatalf("same run serialized differently:\n%s\nvs\n%s", a, b)
	}
}

// Fault injection must be just as deterministic: identical seeds reproduce
// identical perturbed runs.
func TestMeasureDeterministicUnderFaults(t *testing.T) {
	measure := func(seed int64) string {
		r, err := MeasureWorkload("libquantum", config.ISSpectre, config.TSO, 3000, 8000,
			WithFaultSeed(seed), WithChecking(invariant.Options{Interval: 1024}))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", r)
	}
	if a, b := measure(7), measure(7); a != b {
		t.Fatalf("same fault seed serialized differently:\n%s\nvs\n%s", a, b)
	}
}

// A budget exhaustion must name the workload, the configuration, and the
// window it happened in, and stay errors.Is/As-matchable.
func TestMeasureErrorContext(t *testing.T) {
	// Shrink the per-instruction budget below any real CPI so the warmup
	// window exhausts deterministically.
	budgetPerInstruction = 1
	defer func() { budgetPerInstruction = 600 }()
	_, err := MeasureWorkload("hmmer", config.FenceFuture, config.TSO, 5000, 0)
	if err == nil {
		t.Fatal("starved budget did not exhaust")
	}
	check := func(err error, window string) {
		t.Helper()
		if !errors.Is(err, sim.ErrCycleBudget) {
			t.Fatalf("not a budget error: %v", err)
		}
		var be *sim.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("no BudgetError in chain: %v", err)
		}
		if len(be.Retired) == 0 || len(be.PCs) == 0 {
			t.Fatalf("budget error lacks progress context: %+v", be)
		}
		msg := err.Error()
		for _, want := range []string{"hmmer", "Fe-Fu", "TSO", window + " window"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("error %q does not mention %q", msg, want)
			}
		}
	}
	check(err, "warmup")
}

// An invariant violation or deadlock inside a measured window is annotated
// with the window name too.
func TestMeasureWindowAnnotatesCheckerErrors(t *testing.T) {
	// An interval of 1 with a tiny watchdog trips instantly on any kernel
	// with a startup stall longer than K cycles; pick K below the L1-miss
	// round trip so the very first miss trips it during warmup.
	_, err := MeasureWorkload("libquantum", config.Base, config.TSO, 5000, 5000,
		WithChecking(invariant.Options{Interval: 1, WatchdogK: 1}))
	if err == nil {
		t.Skip("no stall long enough to trip a 1-cycle watchdog")
	}
	if !errors.Is(err, invariant.ErrDeadlock) {
		t.Fatalf("expected watchdog deadlock, got: %v", err)
	}
	if !strings.Contains(err.Error(), "warmup window") {
		t.Fatalf("error %q does not name the failing window", err)
	}
}

// A panic inside the measurement loop is converted into an error carrying
// the cycle number and a machine dump instead of crashing the sweep.
func TestMeasurePanicRecovery(t *testing.T) {
	testPanicHook = func() { panic("seeded test panic") }
	defer func() { testPanicHook = nil }()
	_, err := MeasureWorkload("hmmer", config.Base, config.TSO, 100, 100)
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	msg := err.Error()
	for _, want := range []string{"panic at cycle", "seeded test panic", "machine dump", "hmmer"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("recovered error %q does not mention %q", msg, want)
		}
	}
}

// Checking enabled on a healthy measurement must not change its result.
func TestCheckingDoesNotPerturbMeasurement(t *testing.T) {
	plain, err := MeasureWorkload("sjeng", config.ISFuture, config.TSO, 3000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := MeasureWorkload("sjeng", config.ISFuture, config.TSO, 3000, 8000,
		WithChecking(invariant.Options{Interval: 512}))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", plain) != fmt.Sprintf("%#v", checked) {
		t.Fatalf("checking changed the measurement:\n%#v\nvs\n%#v", plain, checked)
	}
}
