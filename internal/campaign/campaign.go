// Package campaign is the resilient execution layer over the internal/runner
// task pool: it runs a matrix of deterministic cells with (1) an append-only
// JSONL checkpoint journal keyed by a content hash of each cell's identity,
// so a killed campaign resumes by skipping finished cells and produces a
// final artifact byte-identical to an uninterrupted run at any worker count;
// (2) a typed retry policy — transient host-side failures (wall-clock
// timeout, fault-seeded I/O) re-run under capped exponential backoff with
// deterministic jitter, while deterministic simulator outcomes (budget
// exhaustion, deadlock, divergence) fail fast; (3) one in-process attempt
// per try, under its own context deadline and with panic recovery, so a
// cell that overruns its wall-clock bound or panics fails alone; and (4)
// graceful degradation — cells that fail permanently are recorded in the
// artifact's degraded block with a ready-to-run repro command instead of
// aborting the campaign.
//
// A cell's only wall-clock bound is its context: the simulation loop polls
// it, and a cell body that never polls it cannot be stopped. A campaign
// that dies anyway (a hang, an out-of-memory kill) resumes from its journal
// with -resume.
//
// Byte-identity across interruption is the design invariant everything hangs
// off: a cell's value is marshaled to canonical JSON exactly once, at the
// moment it completes, and both the journal and the caller see those same
// bytes — so resumed, re-sharded, and uninterrupted campaigns cannot drift.
// The seeded chaos harness (ChaosOptions, `make chaos`) proves it by killing
// campaigns at randomized journal appends and asserting resume-to-identity.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"invisispec/internal/artifact"
	"invisispec/internal/runner"
)

// Cell is one unit of campaign work.
type Cell struct {
	// Name labels the cell in journals, progress lines, and degraded blocks.
	Name string
	// Spec is the cell's JSON-serializable identity: everything that
	// determines its deterministic output (workload, defense, consistency,
	// seed, budget, kernel, ...). Its canonical JSON is content-hashed into
	// the journal key.
	Spec any
	// Timeout bounds each attempt's host wall-clock time (0 = Options.CellTimeout).
	Timeout time.Duration
	// Run does the work in-process. The returned value must marshal to JSON;
	// those bytes are what the journal and the caller both see.
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
	// FromJournal marks a cell skipped because a prior run already
	// journaled its terminal outcome.
	FromJournal bool
	// HostNS is host wall-clock spent on the cell this run (0 for journaled
	// cells) — nondeterministic, for host blocks only.
	HostNS int64
}

// ChaosOptions is the seeded chaos harness: deterministic fault injection
// and kill points for the kill/resume self-tests (`make chaos`) and the CI
// chaos job. Zero value = no chaos.
type ChaosOptions struct {
	// Seed drives fault-site selection deterministically.
	Seed int64
	// KillAtAppend tears the Nth journal append mid-write and aborts the
	// campaign with ErrKilled, simulating a SIGKILL (0 = off).
	KillAtAppend int
	// FaultEveryN injects one transient failure into the first attempt of
	// every cell whose seeded hash lands on 0 mod N, exercising the retry
	// path under chaos (0 = off).
	FaultEveryN int
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
	// Journal is the checkpoint path ("" = no checkpointing). Without
	// Resume an existing file is truncated; with Resume its terminal cells
	// are skipped and their journaled values replayed byte-identically.
	Journal string
	Resume  bool
	// Exec, when non-nil, replaces the cell's own Run in each attempt: it
	// receives the cell and its content key and returns the cell's
	// canonical JSON value. This is the memoization seam — the
	// simulation server points it at a content-addressed store whose Do
	// wraps c.Run, so a cached cell never re-runs. The returned RawMessage
	// is passed through to the journal and the Outcome byte-for-byte,
	// preserving the byte-identity invariant across cache hits. Exec runs
	// under the same per-attempt timeout, panic recovery, retry, and
	// journaling as an ordinary attempt.
	Exec func(ctx context.Context, c Cell, key string) (json.RawMessage, error)
	// Progress receives the pool's per-cell progress lines.
	Progress io.Writer
	// OnProgress receives the pool's structured per-cell completion events
	// (see runner.Options.OnProgress).
	OnProgress func(runner.ProgressEvent)
	// Chaos enables the seeded kill/fault harness.
	Chaos *ChaosOptions

	// sleep replaces the backoff sleep for tests. nil means ctxSleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// Key content-hashes a cell spec's canonical JSON into the journal key.
func Key(spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("campaign: marshaling cell spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Run executes the cells on the bounded pool with checkpointing and retry,
// returning one Outcome per cell in cell order. Per-cell failures degrade
// rather than abort: Run returns an error only for campaign-level problems
// — an invalid cell set, an unusable or unwritable journal, a cancelled
// context, or the chaos harness's ErrKilled.
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
			return nil, fmt.Errorf("campaign: cells %s and %s share content key %s — the journal cannot tell them apart",
				cells[prev].Name, c.Name, key)
		}
		seen[key] = i
		outcomes[i] = Outcome{Index: i, Name: c.Name, Key: key}
	}

	var j *journal
	if opts.Journal != "" {
		var err error
		if j, err = openJournal(opts.Journal, name, opts.Resume, opts.Chaos); err != nil {
			return nil, err
		}
		defer j.close()
	}

	// The campaign's own context: a chaos kill or a journal-write failure
	// cancels it so in-flight cells drain at their next cooperative poll,
	// mimicking sudden process death as closely as an in-process harness can.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		abortMu  sync.Mutex
		abortErr error
	)
	abort := func(err error) {
		abortMu.Lock()
		if abortErr == nil {
			abortErr = err
		}
		abortMu.Unlock()
		cancel()
	}

	var (
		tasks   []runner.Task
		taskIdx []int
	)
	for i := range cells {
		o := &outcomes[i]
		if j != nil {
			if rec, ok := j.prior[o.Key]; ok {
				o.FromJournal = true
				o.Attempts = rec.Attempts
				if rec.Error != "" {
					o.Class = parseClass(rec.Class)
					o.Err = &journaledError{msg: rec.Error, class: o.Class}
				} else {
					o.Value = rec.Value
				}
				continue
			}
		}
		i := i
		tasks = append(tasks, runner.Task{
			Name: cells[i].Name,
			Run: func(tctx context.Context) (any, error) {
				return runCell(tctx, cells[i], outcomes[i], opts, j, abort), nil
			},
		})
		taskIdx = append(taskIdx, i)
	}

	trs := runner.RunTasks(runCtx, tasks, runner.Options{Jobs: opts.Workers, Progress: opts.Progress, OnProgress: opts.OnProgress})
	for k, tr := range trs {
		i := taskIdx[k]
		if tr.Err != nil {
			// Pool-level failure: the cell never produced an Outcome (not
			// started before cancellation, or the campaign plumbing itself
			// panicked). Never journaled, so a resume re-runs it.
			outcomes[i].Err = tr.Err
			outcomes[i].Class = Classify(tr.Err)
		} else {
			outcomes[i] = tr.Value.(Outcome)
		}
		outcomes[i].HostNS = tr.HostNS
	}

	abortMu.Lock()
	err := abortErr
	abortMu.Unlock()
	if err != nil {
		return outcomes, err
	}
	if err := ctx.Err(); err != nil {
		return outcomes, fmt.Errorf("campaign: %s cancelled: %w", name, err)
	}
	return outcomes, nil
}

// runCell drives one cell to a terminal outcome: attempt, classify, retry
// transients under backoff, journal the terminal result.
func runCell(ctx context.Context, c Cell, o Outcome, opts Options, j *journal, abort func(error)) Outcome {
	for {
		o.Attempts++
		val, err := attempt(ctx, c, o.Key, opts)
		if err == nil && chaosFault(opts.Chaos, o.Key) && o.Attempts == 1 {
			err = fmt.Errorf("campaign: %s: chaos-injected fault: %w", c.Name, ErrTransient)
		}
		class := Classify(err)
		switch class {
		case ClassNone:
			// A value that is already canonical JSON (an Exec hook serving
			// memoized bytes) passes through untouched — re-marshaling would
			// be identity for compact JSON, but byte-identity is the
			// invariant, so we never rely on that.
			raw, ok := val.(json.RawMessage)
			if !ok {
				var merr error
				raw, merr = json.Marshal(val)
				if merr != nil {
					o.Err = fmt.Errorf("campaign: %s: marshaling cell value: %w", c.Name, merr)
					o.Class = ClassDeterministic
					journalOutcome(j, o, abort)
					return o
				}
			}
			o.Value = raw
			o.Err, o.Class = nil, ClassNone
			journalOutcome(j, o, abort)
			return o
		case ClassCancelled:
			// Not journaled: the campaign is going down, and a resume must
			// re-run this cell.
			o.Err, o.Class = err, class
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
		// Terminal failure: deterministic, or transient with the retry
		// budget exhausted. Journaled so a resume preserves the degraded
		// block byte-for-byte rather than silently re-litigating it.
		o.Err, o.Class = err, class
		journalOutcome(j, o, abort)
		return o
	}
}

// attempt runs one try of the cell with its per-attempt wall-clock bound
// applied to the context and a panic turned into a PanicError.
func attempt(ctx context.Context, c Cell, key string, opts Options) (val any, err error) {
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
	return c.Run(ctx)
}

// journalOutcome appends a terminal outcome; a refused append (chaos kill or
// write failure) aborts the whole campaign — continuing without durability
// would let a later crash silently lose work the caller believes journaled.
func journalOutcome(j *journal, o Outcome, abort func(error)) {
	if j == nil {
		return
	}
	rec := journalRecord{Kind: "cell", Key: o.Key, Name: o.Name, Attempts: o.Attempts, Value: o.Value}
	if o.Err != nil {
		rec.Value = nil
		rec.Error = o.Err.Error()
		rec.Class = o.Class.String()
	}
	if err := j.appendCell(rec); err != nil {
		abort(err)
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

// chaosFault reports whether the chaos harness injects a transient fault
// into this cell's first attempt.
func chaosFault(c *ChaosOptions, key string) bool {
	if c == nil || c.FaultEveryN <= 0 {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", c.Seed, key)
	return h.Sum64()%uint64(c.FaultEveryN) == 0
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
