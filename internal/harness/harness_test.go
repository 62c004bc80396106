package harness_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/harness"
	"invisispec/internal/runner"
	"invisispec/internal/stats"
)

// sweep measures one workload under every registered defense, keyed by
// defense, the way the figures group a row.
func sweep(t *testing.T, name string, warmup, measure uint64) map[config.Defense]harness.Result {
	t.Helper()
	out := make(map[config.Defense]harness.Result)
	for _, d := range config.AllDefenses() {
		r, err := harness.MeasureWorkload(name, d, config.TSO, warmup, measure)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, d, err)
		}
		out[d] = r
	}
	return out
}

// normalized returns each defense's m in a sweep's runner group, the
// values a figure row prints.
func normalized(name string, res map[config.Defense]harness.Result, m runner.Metric) map[config.Defense]float64 {
	var results []runner.JobResult
	for _, d := range config.AllDefenses() {
		results = append(results, runner.JobResult{
			Job:    runner.Job{Workload: name, Defense: d, Consistency: config.TSO},
			Result: res[d],
		})
	}
	g := runner.NewBench(name, 0, 0, results).Groups()[0]
	out := make(map[config.Defense]float64, len(g.Runs))
	for _, r := range g.Runs {
		out[config.Defense(r.Defense)], _ = g.Value(r, m)
	}
	return out
}

func TestMeasureDeltasExcludeWarmup(t *testing.T) {
	r, err := harness.MeasureWorkload("hmmer", config.Base, config.TSO, 5000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions < 10000-64 { // retire-width slop at the boundary
		t.Fatalf("measured %d instructions, want ~10000", r.Instructions)
	}
	if r.Instructions > 12000 {
		t.Fatalf("measured %d instructions: warmup leaked into the window", r.Instructions)
	}
	if r.Cycles == 0 || r.TotalTraffic() == 0 {
		t.Fatal("empty measurement")
	}
	if r.CPI() <= 0 {
		t.Fatal("CPI must be positive")
	}
}

func TestSweepShape(t *testing.T) {
	// The paper's headline ordering on a single kernel: Base is fastest;
	// InvisiSpec beats the corresponding fence design.
	norm := normalized("sjeng", sweep(t, "sjeng", 5000, 15000), runner.Time)
	if norm[config.Base] != 1.0 {
		t.Fatalf("Base normalizes to %f", norm[config.Base])
	}
	if norm[config.ISSpectre] >= norm[config.FenceSpectre] {
		t.Errorf("IS-Sp (%.2f) not faster than Fe-Sp (%.2f)",
			norm[config.ISSpectre], norm[config.FenceSpectre])
	}
	if norm[config.ISFuture] >= norm[config.FenceFuture] {
		t.Errorf("IS-Fu (%.2f) not faster than Fe-Fu (%.2f)",
			norm[config.ISFuture], norm[config.FenceFuture])
	}
	// Traffic shape on a memory-intensive kernel: InvisiSpec produces
	// Spec-GetS and expose/validate traffic above the baseline.
	mres := sweep(t, "libquantum", 5000, 15000)
	is := mres[config.ISFuture]
	if is.Traffic[stats.TrafficSpecLoad] == 0 {
		t.Error("IS-Fu produced no Spec-GetS traffic")
	}
	// Validations happen even when they all hit the L1 (traffic-free).
	if is.Core.Exposures+is.Core.Validations() == 0 {
		t.Error("IS-Fu performed no validations or exposures")
	}
	if mres[config.Base].Traffic[stats.TrafficSpecLoad] != 0 {
		t.Error("Base produced Spec-GetS traffic")
	}
	tr := normalized("libquantum", mres, runner.Traffic)
	if tr[config.ISFuture] <= 1.0 {
		t.Errorf("IS-Fu normalized traffic %.2f not above Base", tr[config.ISFuture])
	}
}

// TestMeasurePARSEC: a PARSEC kernel resolves to the 8-core machine.
func TestMeasurePARSEC(t *testing.T) {
	r, err := harness.MeasureWorkload("canneal", config.ISSpectre, config.TSO, 8000, 16000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Run.Machine.Cores != 8 {
		t.Fatalf("canneal ran on %d cores, want 8", r.Run.Machine.Cores)
	}
	if r.Instructions < 16000-100 { // retire-width overshoot at the warmup boundary
		t.Fatalf("measured %d instructions", r.Instructions)
	}
	// canneal's spin loads sit behind data-dependent branches, so IS-Sp
	// must classify loads as USLs.
	if r.Core.USLsIssued == 0 && r.Core.SBReuseHits == 0 {
		t.Error("IS-Sp run issued no USLs")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := harness.MeasureWorkload("nope", config.Base, config.TSO, 10, 10); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestMeasureContextDeadline drives a real simulator into a host deadline:
// an expired WithContext surfaces context.DeadlineExceeded from inside the
// simulation loop, and the same run without it succeeds.
func TestMeasureContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := harness.MeasureWorkload("sjeng", config.Base, config.TSO, 2000, 4000, harness.WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: err = %v, want DeadlineExceeded", err)
	}
	if _, err := harness.MeasureWorkload("sjeng", config.Base, config.TSO, 2000, 4000); err != nil {
		t.Fatalf("same run without a deadline failed: %v", err)
	}
}
