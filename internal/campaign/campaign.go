// Package campaign is the resilient execution layer over the internal/runner
// task pool: it runs a matrix of deterministic cells with (1) a content key
// per cell, the hash of its spec, under which a memo store (CacheExec, the
// CLIs' -cache flag) keeps each finished cell, so a killed campaign rerun
// over the same store computes only the cells the store lacks and produces
// a final artifact byte-identical to an uninterrupted run at any worker
// count; (2) a typed retry policy — transient host-side failures
// (wall-clock timeout, fault-seeded I/O) re-run under capped exponential
// backoff with deterministic jitter, while deterministic simulator outcomes
// (budget exhaustion, deadlock, divergence) fail fast; (3) one in-process
// attempt per try, under its own context deadline and with panic recovery,
// so a cell that overruns its wall-clock bound or panics fails alone; and
// (4) graceful degradation — cells that fail permanently are recorded in
// the artifact's degraded block with a ready-to-run repro command instead
// of aborting the campaign.
//
// A cell's only wall-clock bound is its context: the simulation loop polls
// it, and a cell body that never polls it cannot be stopped. A campaign
// that dies anyway (a hang, an out-of-memory kill) reruns with the same
// -cache directory. The key hashes a cell's spec, not the simulator; the
// store stamps each entry with the build that wrote it and recomputes an
// entry another build wrote, so a rebuilt binary never reads a stale cell.
//
// Byte-identity across interruption is the design invariant everything hangs
// off: a cell's value is marshaled to canonical JSON exactly once, at the
// moment it completes, and both the store and the caller see those same
// bytes — so rerun, re-sharded, and uninterrupted campaigns cannot drift.
// The TestChaos tests (`make chaos`) prove it by cancelling cached
// campaigns after a seeded number of stored cells and asserting that the
// rerun reaches the same bytes.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"invisispec/internal/artifact"
	"invisispec/internal/memo"
	"invisispec/internal/runner"
)

// Cell is one unit of campaign work.
type Cell struct {
	// Name labels the cell in progress lines and degraded blocks.
	Name string
	// Spec is the cell's JSON-serializable identity: everything that
	// determines its deterministic output (workload, defense, consistency,
	// seed, budget, kernel, ...). Its canonical JSON is content-hashed into
	// the cell's key.
	Spec any
	// Timeout bounds each attempt's host wall-clock time (0 = Options.CellTimeout).
	Timeout time.Duration
	// Run does the work in-process. The returned value must marshal to JSON;
	// those bytes are what a cache and the caller both see.
	Run func(ctx context.Context) (any, error)
}

// Outcome is one cell's terminal result.
type Outcome struct {
	Index    int
	Name     string
	Key      string          // content hash of the cell's Spec
	Value    json.RawMessage // canonical JSON of the cell's value; nil when Err != nil
	Err      error           // terminal failure (degraded or cancelled cell)
	Class    Class           // Err's classification (ClassNone on success)
	Attempts int             // how many times the cell ran (0 if never started)
	// HostNS is host wall-clock spent on the cell this run —
	// nondeterministic, for host blocks only.
	HostNS int64
}

// Options tunes a campaign run.
type Options struct {
	// Workers is the pool width (<=0: GOMAXPROCS, capped at the cell count).
	Workers int
	// Retries is how many times a transient failure re-runs after its first
	// attempt. Deterministic failures are never retried regardless.
	Retries int
	// CellTimeout bounds each attempt of cells that don't set their own.
	CellTimeout time.Duration
	// Exec, when non-nil, replaces the cell's own Run in each attempt: it
	// receives the cell and its content key and returns the cell's
	// canonical JSON value. CacheExec builds the memoizing one the CLIs'
	// -cache flag and the simulation server use; the host benchmark times
	// cell bodies through it. The returned RawMessage reaches the Outcome
	// byte-for-byte, preserving the byte-identity invariant across cache
	// hits. Exec runs under the same per-attempt timeout, panic recovery
	// and retry as an ordinary attempt.
	Exec func(ctx context.Context, c Cell, key string) (json.RawMessage, error)
	// Progress receives the pool's per-cell progress lines.
	Progress io.Writer
	// OnProgress receives the pool's structured per-cell completion events
	// (see runner.Options.OnProgress).
	OnProgress func(runner.ProgressEvent)

	// sleep replaces the backoff sleep for tests. nil means ctxSleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// Key content-hashes a cell spec's canonical JSON into the cell's key.
func Key(spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("campaign: marshaling cell spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Run executes the cells on the bounded pool with retry, returning one
// Outcome per cell in cell order. Per-cell failures degrade rather than
// abort: Run returns an error only for an invalid cell set or a cancelled
// context.
func Run(ctx context.Context, name string, cells []Cell, opts Options) ([]Outcome, error) {
	if opts.sleep == nil {
		opts.sleep = ctxSleep
	}

	outcomes := make([]Outcome, len(cells))
	seen := make(map[string]int, len(cells))
	for i, c := range cells {
		key, err := Key(c.Spec)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", c.Name, err)
		}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("campaign: cells %s and %s share content key %s — a cache cannot tell them apart",
				cells[prev].Name, c.Name, key)
		}
		seen[key] = i
		outcomes[i] = Outcome{Index: i, Name: c.Name, Key: key}
	}

	tasks := make([]runner.Task, len(cells))
	for i := range cells {
		tasks[i] = runner.Task{
			Name: cells[i].Name,
			Run: func(tctx context.Context) (any, error) {
				// The terminal error goes to the pool too, so its progress
				// counts the cell as failed; the pool keeps the Outcome.
				o := runCell(tctx, cells[i], outcomes[i], opts)
				return o, o.Err
			},
		}
	}

	trs := runner.RunTasks(ctx, tasks, runner.Options{Jobs: opts.Workers, Progress: opts.Progress, OnProgress: opts.OnProgress})
	for i, tr := range trs {
		if o, ok := tr.Value.(Outcome); ok {
			outcomes[i] = o
		} else {
			// Pool-level failure: the cell never produced an Outcome (not
			// started before cancellation, or the campaign plumbing itself
			// panicked). Never stored, so a rerun runs it.
			outcomes[i].Err = tr.Err
			outcomes[i].Class = Classify(tr.Err)
		}
		outcomes[i].HostNS = tr.HostNS
	}

	if err := ctx.Err(); err != nil {
		return outcomes, fmt.Errorf("campaign: %s cancelled: %w", name, err)
	}
	return outcomes, nil
}

// runCell drives one cell to a terminal outcome: attempt, classify, retry
// transients under backoff.
func runCell(ctx context.Context, c Cell, o Outcome, opts Options) Outcome {
	for {
		o.Attempts++
		val, err := attempt(ctx, c, o.Key, opts)
		o.Class = Classify(err)
		switch o.Class {
		case ClassNone:
			o.Value, o.Err = val, nil
			return o
		case ClassTransient:
			if o.Attempts <= opts.Retries {
				if serr := opts.sleep(ctx, backoffFor(o.Key, o.Attempts)); serr != nil {
					o.Err, o.Class = serr, ClassCancelled
					return o
				}
				continue
			}
		}
		// Terminal failure: deterministic, cancelled, or transient with the
		// retry budget exhausted.
		o.Err = err
		return o
	}
}

// attempt runs one try of the cell with its per-attempt wall-clock bound
// applied to the context and a panic turned into a PanicError.
func attempt(ctx context.Context, c Cell, key string, opts Options) (val json.RawMessage, err error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = opts.CellTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, &PanicError{Cell: c.Name, Value: r}
		}
	}()
	if opts.Exec != nil {
		return opts.Exec(ctx, c, key)
	}
	return marshalRun(ctx, c.Name, c.Run)
}

// marshalRun runs a cell body and marshals its value: the one place a
// cell's canonical bytes are made.
func marshalRun(ctx context.Context, name string, run func(context.Context) (any, error)) (json.RawMessage, error) {
	v, err := run(ctx)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: marshaling cell value: %w", name, err)
	}
	return raw, nil
}

// CacheExec returns an Options.Exec that resolves every cell through store
// under its content key: a stored cell does not run, and a cell computed
// on a miss is stored. run computes one cell (nil means the cell's own
// Run); done, when non-nil, learns of every lookup whether the store or a
// concurrent identical computation served it, and its error.
func CacheExec(store *memo.Store, run func(context.Context, Cell) (any, error), done func(hit bool, err error)) func(context.Context, Cell, string) (json.RawMessage, error) {
	return func(ctx context.Context, c Cell, key string) (json.RawMessage, error) {
		body := c.Run
		if run != nil {
			body = func(ctx context.Context) (any, error) { return run(ctx, c) }
		}
		val, hit, err := store.Do(ctx, key, func(ctx context.Context) ([]byte, error) {
			return marshalRun(ctx, c.Name, body)
		})
		if done != nil {
			done(hit, err)
		}
		return val, err
	}
}

// Retry backoff: the first retry waits backoffBase, each further retry
// doubles the wait, capped at backoffMax.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// backoffFor computes the capped exponential backoff for a cell's next
// retry plus a jitter in [0, delay/2) derived from (cell key, attempt), so
// a herd of retrying cells decorrelates reproducibly.
func backoffFor(key string, attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	// Jitter in [0, d/2): same (key, attempt) -> same delay, so retry
	// schedules reproduce exactly.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, attempt)
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	if d+jitter > backoffMax {
		return backoffMax
	}
	return d + jitter
}

// ctxSleep sleeps for d or until the context dies, whichever comes first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Degraded collects the cells that failed permanently, in cell order, for an
// artifact's degraded block. Cancelled cells are excluded — they are not a
// campaign outcome, just an aborted campaign. repro, when non-nil, supplies
// the per-cell ready-to-run reproduction command.
func Degraded(outcomes []Outcome, repro func(o Outcome) string) []artifact.DegradedCell {
	var out []artifact.DegradedCell
	for _, o := range outcomes {
		if o.Err == nil || o.Class == ClassCancelled {
			continue
		}
		d := artifact.DegradedCell{
			Name:     o.Name,
			Key:      o.Key,
			Error:    o.Err.Error(),
			Class:    o.Class.String(),
			Attempts: o.Attempts,
		}
		if repro != nil {
			d.Repro = repro(o)
		}
		out = append(out, d)
	}
	return out
}
