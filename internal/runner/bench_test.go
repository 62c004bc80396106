package runner

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/harness"
)

// TestBenchJSONRoundTrip checks schema validation and the normalized-time
// grouping on a small but real matrix: 2 SPEC kernels x TSO x every
// registered defense, measured serially.
func TestBenchJSONRoundTrip(t *testing.T) {
	jobs := testMatrix()
	results := make([]JobResult, len(jobs))
	for i, j := range jobs {
		res, err := harness.MeasureWorkload(j.Workload, j.Defense, j.Consistency, j.Warmup, j.Measure)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = JobResult{Job: j, Index: i, Result: res, HostNS: int64(i + 1)}
	}
	b := NewBench("roundtrip", 2000, 4000, results).WithHost(time.Second, 4, results)
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(results) {
		t.Fatalf("round-trip kept %d runs, want %d", len(got.Runs), len(results))
	}
	if got.Host == nil || got.Host.Jobs != 4 || len(got.Host.PerRunMS) != len(results) {
		t.Fatal("host block did not round-trip")
	}
	byKey := got.RunsByKey()
	for _, r := range got.Runs {
		if r.Defense == config.Base.String() && r.NormalizedTime != 1.0 {
			t.Fatalf("Base run %s normalizes to %v, want 1", r.RunKey(), r.NormalizedTime)
		}
		if r.NormalizedTime <= 0 {
			t.Fatalf("run %s has no normalized time", r.RunKey())
		}
	}
	if len(byKey) != len(results) {
		t.Fatalf("run keys collide: %d unique for %d runs", len(byKey), len(results))
	}
	if _, err := ReadBenchJSON(strings.NewReader(`{"schema":"bogus/v0"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
