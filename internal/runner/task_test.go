package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunTasksOrderAndValues(t *testing.T) {
	tasks := make([]Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Name: strings.Repeat("x", i+1),
			Run:  func(ctx context.Context) (any, error) { return i * i, nil },
		}
	}
	results := RunTasks(context.Background(), tasks, Options{Jobs: 4})
	if len(results) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(results), len(tasks))
	}
	for i, r := range results {
		if r.Index != i || r.Name != tasks[i].Name {
			t.Errorf("result %d: index %d name %q", i, r.Index, r.Name)
		}
		if r.Err != nil || r.Value.(int) != i*i {
			t.Errorf("result %d: value %v err %v, want %d", i, r.Value, r.Err, i*i)
		}
	}
}

func TestRunTasksErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task{
		{Name: "ok1", Run: func(ctx context.Context) (any, error) { return 1, nil }},
		{Name: "bad", Run: func(ctx context.Context) (any, error) { return -1, boom }},
		{Name: "ok2", Run: func(ctx context.Context) (any, error) { return 2, nil }},
	}
	results := RunTasks(context.Background(), tasks, Options{Jobs: 2})
	if results[1].Value != -1 {
		t.Fatalf("failed task's value = %v, want the -1 it returned with its error", results[1].Value)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy tasks failed: %v, %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Fatalf("err = %v, want wrapped boom", results[1].Err)
	}
	if want := "runner: bad: boom"; results[1].Err.Error() != want {
		t.Fatalf("err = %q, want %q", results[1].Err, want)
	}
}

func TestRunTasksPanicIsolation(t *testing.T) {
	tasks := []Task{
		{Name: "panicky", Run: func(ctx context.Context) (any, error) { panic("kaboom") }},
		{Name: "fine", Run: func(ctx context.Context) (any, error) { return "ok", nil }},
	}
	results := RunTasks(context.Background(), tasks, Options{Jobs: 1})
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panic: kaboom") {
		t.Fatalf("panic not converted: %v", results[0].Err)
	}
	if results[1].Err != nil || results[1].Value != "ok" {
		t.Fatalf("task after panic damaged: %v %v", results[1].Value, results[1].Err)
	}
}

func TestRunTasksCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	tasks := make([]Task, 6)
	for i := range tasks {
		tasks[i] = Task{
			Name: "t",
			Run: func(c context.Context) (any, error) {
				started.Add(1)
				select {
				case <-release:
					return nil, nil
				case <-c.Done():
					return nil, c.Err()
				}
			},
		}
	}
	done := make(chan []TaskResult)
	go func() { done <- RunTasks(ctx, tasks, Options{Jobs: 2}) }()
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	results := <-done
	close(release)
	var notStarted int
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		if strings.Contains(r.Err.Error(), "not started") {
			notStarted++
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("err = %v, want wrapped context.Canceled", r.Err)
		}
	}
	if notStarted == 0 {
		t.Error("expected some tasks to fail before starting")
	}
}

// TestRunTasksPartialFailureStatuses pins the partial-failure contract in one
// table: a mixed campaign of ok / error / panic / timeout / cancelled tasks
// always yields len(tasks) results, each failure mode is addressable by its
// submission index, and no failure leaks into a neighbouring slot.
func TestRunTasksPartialFailureStatuses(t *testing.T) {
	boom := errors.New("boom")
	inner, cancelInner := context.WithCancel(context.Background())
	cancelInner() // the "cancelled" task observes an already-dead context
	tasks := []Task{
		{Name: "ok", Run: func(ctx context.Context) (any, error) { return 42, nil }},
		{Name: "err", Run: func(ctx context.Context) (any, error) { return nil, boom }},
		{Name: "panic", Run: func(ctx context.Context) (any, error) { panic("kaboom") }},
		{Name: "timeout", Run: func(ctx context.Context) (any, error) {
			ctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
			defer cancel()
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		{Name: "cancelled", Run: func(ctx context.Context) (any, error) { return nil, inner.Err() }},
		{Name: "ok2", Run: func(ctx context.Context) (any, error) { return "after", nil }},
	}
	// Jobs: 1 serializes the pool, so the panic and timeout demonstrably do
	// not poison later tasks on the same worker.
	results := RunTasks(context.Background(), tasks, Options{Jobs: 1})
	if len(results) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(results), len(tasks))
	}
	for i, r := range results {
		if r.Index != i || r.Name != tasks[i].Name {
			t.Fatalf("slot %d: index %d name %q — results not index-addressed", i, r.Index, r.Name)
		}
	}
	check := func(i int, wantErr func(error) bool, desc string) {
		t.Helper()
		if !wantErr(results[i].Err) {
			t.Errorf("slot %d (%s): err = %v, want %s", i, tasks[i].Name, results[i].Err, desc)
		}
	}
	check(0, func(e error) bool { return e == nil && results[0].Value == 42 }, "nil with value 42")
	check(1, func(e error) bool { return errors.Is(e, boom) }, "wrapped boom")
	check(2, func(e error) bool { return e != nil && strings.Contains(e.Error(), "panic: kaboom") }, "recovered panic")
	check(3, func(e error) bool { return errors.Is(e, context.DeadlineExceeded) }, "deadline exceeded")
	check(4, func(e error) bool { return errors.Is(e, context.Canceled) }, "context.Canceled")
	check(5, func(e error) bool { return e == nil && results[5].Value == "after" }, `nil with value "after"`)
	for i, r := range results {
		if r.Err != nil && !strings.Contains(r.Err.Error(), tasks[i].Name) {
			t.Errorf("slot %d error %q does not name its task %q", i, r.Err, tasks[i].Name)
		}
	}
}

// TestRunTasksCancellationNoLeaks: cancelling mid-campaign fails every
// unfinished slot and leaves no worker or task goroutine behind once
// RunTasks returns.
func TestRunTasksCancellationNoLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	tasks := make([]Task, 32)
	for i := range tasks {
		tasks[i] = Task{
			Name: fmt.Sprintf("block-%d", i),
			Run: func(c context.Context) (any, error) {
				started.Add(1)
				<-c.Done() // block until cancelled; never finish on its own
				return nil, c.Err()
			},
		}
	}
	done := make(chan []TaskResult)
	go func() { done <- RunTasks(ctx, tasks, Options{Jobs: 4}) }()
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	results := <-done
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("slot %d completed despite cancellation", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("slot %d: err = %v, want wrapped context.Canceled", i, r.Err)
		}
	}
	waitForGoroutines(t, base)
}

// TestRunTasksDeadContextStartsNothing stresses the hand-off between the
// feed loop and a worker already waiting on the queue: on a cancelled
// context no task may start, even one the feed loop's select hands over
// instead of noticing the cancellation. The tasks never poll their
// context, so one that starts runs to success.
func TestRunTasksDeadContextStartsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	for round := 0; round < 2000; round++ {
		tasks := make([]Task, 8)
		for i := range tasks {
			tasks[i] = Task{Name: fmt.Sprintf("t%d", i), Run: func(context.Context) (any, error) { return i, nil }}
		}
		for _, r := range RunTasks(ctx, tasks, Options{Jobs: len(tasks)}) {
			switch {
			case r.Err == nil:
				ran++
			case !errors.Is(r.Err, context.Canceled) || !strings.Contains(r.Err.Error(), "not started"):
				t.Fatalf("slot %d: err = %v, want a not-started context.Canceled", r.Index, r.Err)
			}
		}
	}
	if ran > 0 {
		t.Fatalf("%d tasks ran under a cancelled context", ran)
	}
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base (plus runtime slack) or the deadline passes.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 { // slack for runtime-internal goroutines
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunTasksEmpty(t *testing.T) {
	if got := RunTasks(context.Background(), nil, Options{}); len(got) != 0 {
		t.Fatalf("got %d results for empty input", len(got))
	}
}
