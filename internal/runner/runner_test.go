package runner

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/harness"
)

// testMatrix is a small but real matrix: 2 SPEC kernels x TSO x every
// registered defense.
func testMatrix() []Job {
	return Matrix([]string{"sjeng", "libquantum"}, false,
		[]config.Consistency{config.TSO}, config.AllDefenses(), nil, 2000, 4000)
}

// matrixTasks wraps matrix jobs as pool tasks that measure on a real
// simulator under the task's context.
func matrixTasks(jobs []Job) []Task {
	tasks := make([]Task, len(jobs))
	for i, j := range jobs {
		tasks[i] = Task{Name: j.String(), Run: func(ctx context.Context) (any, error) {
			return harness.MeasureWorkload(j.Workload, j.Defense, j.Consistency,
				j.Warmup, j.Measure, harness.WithContext(ctx))
		}}
	}
	return tasks
}

// jobResults maps pool results back onto the jobs that built the tasks.
func jobResults(jobs []Job, results []TaskResult) []JobResult {
	out := make([]JobResult, len(results))
	for i, r := range results {
		out[i] = JobResult{Job: jobs[i], Index: r.Index, Err: r.Err, HostNS: r.HostNS}
		if r.Err == nil {
			out[i].Result = r.Value.(harness.Result)
		}
	}
	return out
}

// stripHost zeroes the one intentionally nondeterministic field so result
// slices can be compared across worker counts.
func stripHost(results []JobResult) []JobResult {
	out := make([]JobResult, len(results))
	copy(out, results)
	for i := range out {
		out[i].HostNS = 0
	}
	return out
}

// TestRunnerDeterminism pins the pool's aggregation contract on a real
// matrix: a 4-worker run produces results — and BENCH_*.json artifact
// bytes — identical to a 1-worker run, even though the 4-worker completion
// order is scheduler-dependent.
func TestRunnerDeterminism(t *testing.T) {
	jobs := testMatrix()
	run := func(workers int) ([]JobResult, []byte) {
		t.Helper()
		results := jobResults(jobs, RunTasks(context.Background(), matrixTasks(jobs), Options{Jobs: workers}))
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		var buf bytes.Buffer
		if err := WriteBenchJSON(&buf, NewBench("determinism", 2000, 4000, results)); err != nil {
			t.Fatal(err)
		}
		return stripHost(results), buf.Bytes()
	}
	serial, bs := run(1)
	parallel, bp := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("4-worker results differ from 1-worker results")
	}
	if !bytes.Equal(bs, bp) {
		t.Fatalf("bench JSON differs between 1-worker and 4-worker runs:\n--- serial ---\n%s\n--- parallel ---\n%s", bs, bp)
	}
}

// TestSweepMatchesSerialSweep: one workload swept across every defense on
// the pool aggregates to exactly what a serial loop of direct measurements
// computes.
func TestSweepMatchesSerialSweep(t *testing.T) {
	jobs := Matrix([]string{"sjeng"}, false, []config.Consistency{config.TSO},
		config.AllDefenses(), nil, 2000, 4000)
	got := jobResults(jobs, RunTasks(context.Background(), matrixTasks(jobs), Options{Jobs: 4}))
	for i, j := range jobs {
		want, err := harness.MeasureWorkload(j.Workload, j.Defense, j.Consistency, j.Warmup, j.Measure)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Err != nil {
			t.Fatalf("%s: %v", j, got[i].Err)
		}
		if !reflect.DeepEqual(got[i].Result, want) {
			t.Fatalf("%s: parallel sweep disagrees with the serial measurement", j)
		}
	}
}

// TestRunnerCancellationNoLeaks cancels mid-matrix and asserts (a) every job
// slot reports context.Canceled — in-flight jobs from inside the simulation
// loop, the rest from the pool — and (b) all pool goroutines exit.
func TestRunnerCancellationNoLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{Workload: "sjeng", Defense: config.Base, Consistency: config.TSO,
			Warmup: 2000, Measure: 4000}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, len(jobs))
	tasks := matrixTasks(jobs)
	for i := range tasks {
		measure := tasks[i].Run
		tasks[i].Run = func(ctx context.Context) (any, error) {
			started <- struct{}{}
			<-ctx.Done() // hold the job until the matrix is cancelled
			return measure(ctx)
		}
	}
	go func() {
		<-started // at least one job is in flight
		cancel()
	}()
	results := RunTasks(ctx, tasks, Options{Jobs: 4})
	canceled := 0
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("job %d reported success after cancellation", r.Index)
		}
		if errors.Is(r.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled != len(jobs) {
		t.Fatalf("%d/%d jobs report context.Canceled", canceled, len(jobs))
	}
	waitForGoroutines(t, base)
}

// TestRunnerPanicIsolation seeds a panic into one job of a real matrix and
// asserts it is reported as that job's error while the rest of the matrix
// completes.
func TestRunnerPanicIsolation(t *testing.T) {
	jobs := testMatrix()
	victim := 3
	tasks := matrixTasks(jobs)
	tasks[victim].Run = func(context.Context) (any, error) { panic("seeded test panic") }
	for _, r := range jobResults(jobs, RunTasks(context.Background(), tasks, Options{Jobs: 4})) {
		if r.Index == victim {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "seeded test panic") {
				t.Fatalf("victim job error = %v, want seeded panic", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("job %d failed alongside the panicking job: %v", r.Index, r.Err)
		}
		if r.Result.Instructions == 0 {
			t.Fatalf("job %d produced an empty measurement", r.Index)
		}
	}
}
