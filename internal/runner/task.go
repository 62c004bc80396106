package runner

// The worker pool: a Task is an arbitrary unit of work identified by name,
// and RunTasks shards a slice of them across a bounded pool with
// index-addressed deterministic aggregation, panic isolation, and
// fail-fast-free cancellation. internal/campaign runs every bench,
// leakage and conformance cell through it, each under its own per-attempt
// deadline.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Task is one unit of work for the generic pool.
type Task struct {
	// Name labels the task in errors and progress lines.
	Name string
	// Run does the work. It must be self-contained: tasks run concurrently
	// and share nothing but the pool.
	Run func(ctx context.Context) (any, error)
}

// TaskResult pairs a task with its outcome.
type TaskResult struct {
	Name  string
	Index int // position in the submitted slice
	// Value is what Run returned, alongside an error too (nil for a task
	// that never started or panicked).
	Value any
	// Err is the task's failure, if any: an error from Run, a context
	// cancellation/timeout, or a recovered panic. A failed task never
	// kills the pool.
	Err error
	// HostNS is the task's host wall-clock duration in nanoseconds — the
	// one nondeterministic field, for host blocks only.
	HostNS int64
}

// RunTasks executes tasks on a bounded worker pool and returns one
// TaskResult per task, in task order. It always returns len(tasks)
// results: per-task failures are recorded in the task's slot without
// stopping the pool, and a cancelled context fails the not-yet-started
// tasks with ctx.Err() while in-flight tasks abort at their next context
// poll. No task starts once the context is cancelled. All workers have
// exited by the time RunTasks returns.
func RunTasks(ctx context.Context, tasks []Task, opts Options) []TaskResult {
	results := make([]TaskResult, len(tasks))
	for i := range results {
		results[i] = TaskResult{Name: tasks[i].Name, Index: i}
	}
	if len(tasks) == 0 {
		return results
	}

	var (
		wg    sync.WaitGroup
		queue = make(chan int)
		prog  = newProgress(opts.Progress, opts.OnProgress, len(tasks))
	)
	for w := 0; w < opts.workers(len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &results[i]
				// The feed loop's select may hand a waiting worker a task
				// after the context died; it must not start.
				if err := ctx.Err(); err != nil {
					r.Err = notStarted(tasks[i], err)
					continue
				}
				start := time.Now()
				r.Value, r.Err = runOneTask(ctx, tasks[i])
				r.HostNS = time.Since(start).Nanoseconds()
				prog.done(tasks[i].Name, r.Err)
			}
		}()
	}
feed:
	for i := range tasks {
		select {
		case queue <- i:
		case <-ctx.Done():
			// Fail everything not yet handed to a worker; workers abort
			// their in-flight task at the next cooperative context poll.
			for j := i; j < len(tasks); j++ {
				results[j].Err = notStarted(tasks[j], ctx.Err())
			}
			break feed
		}
	}
	close(queue)
	wg.Wait()
	return results
}

// notStarted is the error of a task the pool never ran.
func notStarted(t Task, err error) error {
	return fmt.Errorf("runner: %s not started: %w", t.Name, err)
}

// runOneTask executes a single task with panics converted to errors.
func runOneTask(ctx context.Context, t Task) (v any, err error) {
	defer func() {
		// Guard the pool against panics anywhere on the task path so one
		// bad task cannot take down the other workers' tasks.
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: %s: panic: %v", t.Name, r)
		}
	}()
	v, err = t.Run(ctx)
	if err != nil {
		return v, fmt.Errorf("runner: %s: %w", t.Name, err)
	}
	return v, nil
}
