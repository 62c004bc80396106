package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"invisispec/internal/invariant"
	"invisispec/internal/memo"
	"invisispec/internal/runner"
	"invisispec/internal/sim"
)

// synthSpec is the content identity of the synthetic cells the campaign
// tests run: cheap, deterministic, JSON-round-trippable.
type synthSpec struct {
	Campaign string `json:"campaign"`
	I        int    `json:"i"`
}

// synthValue is what a synthetic cell computes.
type synthValue struct {
	I  int `json:"i"`
	Sq int `json:"sq"`
}

// synthCells builds n deterministic cells; failAt maps cell indices to the
// error their Run always returns.
func synthCells(name string, n int, failAt map[int]error) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Name: fmt.Sprintf("%s-%d", name, i),
			Spec: synthSpec{Campaign: name, I: i},
			Run: func(ctx context.Context) (any, error) {
				if err := failAt[i]; err != nil {
					return nil, err
				}
				return synthValue{I: i, Sq: i * i}, nil
			},
		}
	}
	return cells
}

// payload concatenates the deterministic outcome bytes the way an artifact
// consumer would: value bytes for successes, error text for failures.
func payload(t *testing.T, outcomes []Outcome) string {
	t.Helper()
	var b strings.Builder
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(&b, "%s ERR %s\n", o.Name, o.Err.Error())
			continue
		}
		fmt.Fprintf(&b, "%s %s\n", o.Name, o.Value)
	}
	return b.String()
}

func noSleep(opts *Options) {
	opts.sleep = func(ctx context.Context, d time.Duration) error { return nil }
}

// countRuns makes every cell count its runs in runs.
func countRuns(cells []Cell, runs *atomic.Int32) []Cell {
	for i := range cells {
		run := cells[i].Run
		cells[i].Run = func(ctx context.Context) (any, error) {
			runs.Add(1)
			return run(ctx)
		}
	}
	return cells
}

// openStore opens a memo store in dir for the cache tests.
func openStore(t *testing.T, dir string) *memo.Store {
	t.Helper()
	store, err := memo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestRunBasicOrderAndValues(t *testing.T) {
	cells := synthCells("basic", 9, nil)
	outcomes, err := Run(context.Background(), "basic", cells, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(cells) {
		t.Fatalf("got %d outcomes for %d cells", len(outcomes), len(cells))
	}
	for i, o := range outcomes {
		if o.Index != i || o.Name != cells[i].Name {
			t.Errorf("outcome %d: index %d name %q", i, o.Index, o.Name)
		}
		if o.Err != nil || o.Attempts != 1 {
			t.Errorf("outcome %d: err=%v attempts=%d", i, o.Err, o.Attempts)
		}
		want, _ := json.Marshal(synthValue{I: i, Sq: i * i})
		if string(o.Value) != string(want) {
			t.Errorf("outcome %d: value %s, want %s", i, o.Value, want)
		}
	}
}

func TestRunRejectsDuplicateKeys(t *testing.T) {
	cells := synthCells("dup", 2, nil)
	cells[1].Spec = cells[0].Spec
	if _, err := Run(context.Background(), "dup", cells, Options{}); err == nil ||
		!strings.Contains(err.Error(), "share content key") {
		t.Fatalf("duplicate specs not rejected: %v", err)
	}
}

// TestClassifyTable pins the full retry taxonomy: exactly which failures are
// transient (retried), deterministic (fail fast), and cancelled.
func TestClassifyTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("outer: %w", err) }
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassNone},
		{"canceled", context.Canceled, ClassCancelled},
		{"canceled wrapped", wrap(context.Canceled), ClassCancelled},
		{"deadline", context.DeadlineExceeded, ClassTransient},
		{"deadline wrapped", wrap(context.DeadlineExceeded), ClassTransient},
		{"transient sentinel", ErrTransient, ClassTransient},
		{"transient wrapped", wrap(ErrTransient), ClassTransient},
		{"budget", &sim.BudgetError{}, ClassDeterministic},
		{"budget wrapped", wrap(&sim.BudgetError{}), ClassDeterministic},
		{"deadlock", &invariant.DeadlockError{}, ClassDeterministic},
		{"violation", &invariant.ViolationError{Err: errors.New("x")}, ClassDeterministic},
		{"panic", &PanicError{Cell: "c", Value: "boom"}, ClassDeterministic},
		{"unknown", errors.New("mystery"), ClassDeterministic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestClassString pins the class names degraded blocks record.
func TestClassString(t *testing.T) {
	want := map[Class]string{ClassNone: "ok", ClassTransient: "transient", ClassDeterministic: "deterministic", ClassCancelled: "cancelled"}
	for c, name := range want {
		if got := c.String(); got != name {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, name)
		}
	}
}

// TestRetryPolicyNeverRetriesDeterministic: the acceptance-criteria table —
// deterministic failures run exactly once no matter the retry budget,
// transient failures consume the full budget, and a transient blip recovers.
func TestRetryPolicyNeverRetriesDeterministic(t *testing.T) {
	cases := []struct {
		name         string
		err          error
		wantAttempts int
		wantClass    Class
	}{
		{"budget error", &sim.BudgetError{}, 1, ClassDeterministic},
		{"deadlock", &invariant.DeadlockError{}, 1, ClassDeterministic},
		{"violation", &invariant.ViolationError{Err: errors.New("swmr")}, 1, ClassDeterministic},
		{"unknown", errors.New("mystery"), 1, ClassDeterministic},
		{"transient", fmt.Errorf("io blip: %w", ErrTransient), 4, ClassTransient},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var runs atomic.Int32
			cells := []Cell{{
				Name: "cell",
				Spec: synthSpec{Campaign: "retry-" + c.name, I: 0},
				Run: func(ctx context.Context) (any, error) {
					runs.Add(1)
					return nil, c.err
				},
			}}
			opts := Options{Retries: 3}
			noSleep(&opts)
			outcomes, err := Run(context.Background(), "retry", cells, opts)
			if err != nil {
				t.Fatal(err)
			}
			o := outcomes[0]
			if o.Err == nil || o.Class != c.wantClass {
				t.Fatalf("outcome err=%v class=%v, want class %v", o.Err, o.Class, c.wantClass)
			}
			if int(runs.Load()) != c.wantAttempts || o.Attempts != c.wantAttempts {
				t.Fatalf("ran %d times (outcome says %d), want %d", runs.Load(), o.Attempts, c.wantAttempts)
			}
		})
	}
}

func TestRetryRecoversFromTransientBlip(t *testing.T) {
	var runs atomic.Int32
	cells := []Cell{{
		Name: "flaky",
		Spec: synthSpec{Campaign: "blip", I: 0},
		Run: func(ctx context.Context) (any, error) {
			if runs.Add(1) < 3 {
				return nil, fmt.Errorf("blip %d: %w", runs.Load(), ErrTransient)
			}
			return synthValue{I: 0, Sq: 0}, nil
		},
	}}
	opts := Options{Retries: 3}
	noSleep(&opts)
	outcomes, err := Run(context.Background(), "blip", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if o := outcomes[0]; o.Err != nil || o.Attempts != 3 {
		t.Fatalf("outcome err=%v attempts=%d, want success on attempt 3", o.Err, o.Attempts)
	}
}

// TestBackoffDeterministicAndCapped: same (key, attempt) -> same delay;
// delays grow from base, reach the cap, and never exceed it.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	prev := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := backoffFor("key", attempt)
		d2 := backoffFor("key", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 < backoffBase || d1 > backoffMax {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d1, backoffBase, backoffMax)
		}
		if d1 < prev && d1 != backoffMax {
			t.Fatalf("attempt %d: backoff %v shrank below %v before the cap", attempt, d1, prev)
		}
		prev = d1
	}
	if prev != backoffMax {
		t.Fatalf("attempt 10: backoff %v, want the cap %v", prev, backoffMax)
	}
	if backoffFor("key", 1) == backoffFor("other", 1) {
		t.Log("keys \"key\" and \"other\" collided on attempt 1 jitter (possible but suspicious)")
	}
}

// TestRetrySleepsObserveBackoff: the retry loop actually sleeps the
// scheduled backoff (captured via the test hook) between attempts.
func TestRetrySleepsObserveBackoff(t *testing.T) {
	var slept []time.Duration
	cells := []Cell{{
		Name: "flaky",
		Spec: synthSpec{Campaign: "sleeps", I: 0},
		Run: func(ctx context.Context) (any, error) {
			return nil, fmt.Errorf("blip: %w", ErrTransient)
		},
	}}
	opts := Options{Retries: 2}
	opts.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	if _, err := Run(context.Background(), "sleeps", cells, opts); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (retries)", len(slept))
	}
	key, _ := Key(synthSpec{Campaign: "sleeps", I: 0})
	for i, d := range slept {
		if want := backoffFor(key, i+1); d != want {
			t.Errorf("sleep %d = %v, want %v", i, d, want)
		}
	}
}

// TestAttemptTimeout: the per-attempt context deadline is a cell's only
// wall-clock bound. A cell that blocks until its context ends times out
// transiently, so with Retries 1 it runs twice and then degrades; and a
// cell's own Timeout overrides a long CellTimeout.
func TestAttemptTimeout(t *testing.T) {
	var runs atomic.Int32
	hang := func(ctx context.Context) (any, error) {
		runs.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	cells := []Cell{{Name: "hang", Spec: synthSpec{Campaign: "timeout", I: 0}, Run: hang}}
	opts := Options{CellTimeout: 5 * time.Millisecond, Retries: 1}
	noSleep(&opts)
	outcomes, err := Run(context.Background(), "timeout", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := outcomes[0]
	if runs.Load() != 2 || o.Attempts != 2 {
		t.Fatalf("ran %d times (outcome says %d), want 2", runs.Load(), o.Attempts)
	}
	if !errors.Is(o.Err, context.DeadlineExceeded) || o.Class != ClassTransient {
		t.Fatalf("outcome err=%v class=%v, want a transient deadline", o.Err, o.Class)
	}
	if deg := Degraded(outcomes, nil); len(deg) != 1 || deg[0].Class != "transient" || deg[0].Attempts != 2 {
		t.Fatalf("degraded block %+v, want the timed-out cell after 2 attempts", deg)
	}

	// Were the cell's own Timeout ignored, the hour-long CellTimeout would
	// outlast this context and Run would return its expiry.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	own := []Cell{{Name: "own", Spec: synthSpec{Campaign: "timeout-own", I: 0}, Timeout: 5 * time.Millisecond, Run: hang}}
	outcomes, err = Run(ctx, "timeout-own", own, Options{CellTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if o := outcomes[0]; !errors.Is(o.Err, context.DeadlineExceeded) || o.Class != ClassTransient || o.Attempts != 1 {
		t.Fatalf("own-timeout outcome err=%v class=%v attempts=%d, want one transient deadline", o.Err, o.Class, o.Attempts)
	}
}

// TestCancelledCellsNotCached: a cancelled campaign stores nothing for the
// interrupted cells, so a rerun over the same cache runs them.
func TestCancelledCellsNotCached(t *testing.T) {
	store := openStore(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := synthCells("cancel", 4, nil)
	outcomes, err := Run(ctx, "cancel", cells, Options{Exec: CacheExec(store, nil, nil)})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
	for _, o := range outcomes {
		if o.Err == nil {
			t.Fatalf("cell %s succeeded under a dead context", o.Name)
		}
		if o.Class != ClassCancelled {
			t.Fatalf("cell %s classified %v, want cancelled", o.Name, o.Class)
		}
	}
	if st := store.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled cells were cached: %+v", st)
	}
	// Rerun after the abort: every cell runs fresh.
	outcomes, err = Run(context.Background(), "cancel", cells, Options{Exec: CacheExec(store, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("cell %s after the rerun: %v", o.Name, o.Err)
		}
	}
	if st := store.Stats(); st.Hits != 0 || st.Entries != len(cells) {
		t.Fatalf("rerun store stats %+v, want %d fresh entries and no hits", st, len(cells))
	}
}

// TestDegradedBlock: permanent failures land in the degraded list with their
// class, attempts, and repro command; successes and cancellations don't.
func TestDegradedBlock(t *testing.T) {
	boom := errors.New("permanently broken")
	cells := synthCells("degraded", 4, map[int]error{2: boom})
	opts := Options{Retries: 2}
	noSleep(&opts)
	outcomes, err := Run(context.Background(), "degraded", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	deg := Degraded(outcomes, func(o Outcome) string { return fmt.Sprintf("rerun -only %d", o.Index) })
	if len(deg) != 1 {
		t.Fatalf("degraded block has %d cells, want 1: %+v", len(deg), deg)
	}
	d := deg[0]
	if d.Name != "degraded-2" || d.Class != "deterministic" || d.Attempts != 1 {
		t.Fatalf("degraded cell wrong: %+v", d)
	}
	if d.Repro != "rerun -only 2" {
		t.Fatalf("repro = %q", d.Repro)
	}
	if !strings.Contains(d.Error, "permanently broken") {
		t.Fatalf("error text lost: %q", d.Error)
	}
	// Cancelled outcomes are not degradations.
	if got := Degraded([]Outcome{{Name: "c", Err: context.Canceled, Class: ClassCancelled}}, nil); len(got) != 0 {
		t.Fatalf("cancelled outcome counted as degraded: %+v", got)
	}
}

// TestFailedCellsRunAgain: a cache keeps only values. A rerun over the
// same store serves the successes without running them, while a cell that
// failed deterministically runs again and fails with the same error.
func TestFailedCellsRunAgain(t *testing.T) {
	store := openStore(t, t.TempDir())
	boom := errors.New("deterministically broken")
	var runs atomic.Int32
	cells := countRuns(synthCells("rerun", 3, map[int]error{1: boom}), &runs)
	opts := Options{Exec: CacheExec(store, nil, nil)}
	outcomes, err := Run(context.Background(), "rerun", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := Run(context.Background(), "rerun", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 4 {
		t.Fatalf("cells ran %d times over two runs, want 4 (the failing cell twice)", runs.Load())
	}
	if got, want := payload(t, rerun), payload(t, outcomes); got != want {
		t.Fatalf("rerun drifted:\n%s\nvs\n%s", got, want)
	}
	if st := store.Stats(); st.Hits != 2 {
		t.Fatalf("store hits %d, want the 2 successes served on the rerun", st.Hits)
	}
}

// TestProgressCountsFailedCells: a cell's terminal failure reaches the
// pool's progress line and its structured event, while the Outcome keeps
// its class and attempts.
func TestProgressCountsFailedCells(t *testing.T) {
	cells := synthCells("progress", 2, map[int]error{1: errors.New("boom")})
	var (
		lines strings.Builder
		last  runner.ProgressEvent
	)
	outcomes, err := Run(context.Background(), "progress", cells, Options{
		Workers:    1,
		Progress:   &lines,
		OnProgress: func(ev runner.ProgressEvent) { last = ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	text := strings.TrimSpace(lines.String())
	final := text[strings.LastIndex(text, "\n")+1:]
	if !strings.Contains(final, "2/2 done (1 failed)") || !strings.Contains(final, "progress-1") || !strings.Contains(final, "FAIL") {
		t.Fatalf("last progress line %q, want the failed cell counted and marked FAIL", final)
	}
	if last.Failed != 1 || last.Name != "progress-1" || last.Err == nil || !strings.Contains(last.Err.Error(), "boom") {
		t.Fatalf("last progress event %+v, want the failing cell with Failed 1", last)
	}
	if o := outcomes[1]; o.Class != ClassDeterministic || o.Attempts != 1 || o.Err.Error() != "boom" {
		t.Fatalf("failed cell's outcome %+v lost its class, attempts or error", o)
	}
}

// TestCacheFlag: -cache DIR serves the cells stored there without running
// them and stores every newly computed cell; a missing DIR starts fresh,
// and Close warns about a cell the store could not write.
func TestCacheFlag(t *testing.T) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	flags := AddFlags(fs)
	dir := filepath.Join(t.TempDir(), "cache")
	if err := fs.Parse([]string{"-cache", dir, "-retries", "3"}); err != nil {
		t.Fatal(err)
	}
	opts, err := flags.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Retries != 3 || opts.Exec == nil {
		t.Fatalf("options %+v, want Retries 3 and a cache Exec", opts)
	}
	var runs atomic.Int32
	cells := countRuns(synthCells("flag", 3, nil), &runs)
	first, err := Run(context.Background(), "flag", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(context.Background(), "flag", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 3 || payload(t, first) != payload(t, second) {
		t.Fatalf("cells ran %d times over two runs, want 3; payloads %q vs %q", runs.Load(), payload(t, first), payload(t, second))
	}
	var warn strings.Builder
	flags.Close(&warn, "campaign")
	if warn.Len() != 0 {
		t.Fatalf("Close warned on a healthy store: %q", warn.String())
	}
	if n := openStore(t, dir).Stats().Entries; n != 3 {
		t.Fatalf("the store holds %d entries, want the 3 cells", n)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), "flag-lost", synthCells("flag-lost", 1, nil), opts); err != nil {
		t.Fatal(err)
	}
	flags.Close(&warn, "campaign")
	if !strings.Contains(warn.String(), "1 entries failed their integrity check or could not be written") {
		t.Fatalf("Close after a failed write warned %q", warn.String())
	}
}
