package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"invisispec/internal/invariant"
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

// journalRecords reads every record of the journal at path.
func journalRecords(t *testing.T, path string) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
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
		if o.Err != nil || o.Attempts != 1 || o.FromJournal {
			t.Errorf("outcome %d: err=%v attempts=%d fromJournal=%v", i, o.Err, o.Attempts, o.FromJournal)
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
		{"journaled transient", &journaledError{msg: "m", class: ClassTransient}, ClassTransient},
		{"unknown", errors.New("mystery"), ClassDeterministic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassStringRoundTrip(t *testing.T) {
	for _, c := range []Class{ClassNone, ClassTransient, ClassDeterministic, ClassCancelled} {
		if got := parseClass(c.String()); got != c {
			t.Errorf("parseClass(%q) = %v, want %v", c.String(), got, c)
		}
	}
	if got := parseClass("garbage"); got != ClassDeterministic {
		t.Errorf("unknown class parsed as %v, want deterministic", got)
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
// transiently, so with Retries 1 it runs twice, then degrades and is
// journaled; a resume replays it without running it; and a cell's own
// Timeout overrides a long CellTimeout.
func TestAttemptTimeout(t *testing.T) {
	var runs atomic.Int32
	hang := func(ctx context.Context) (any, error) {
		runs.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	cells := []Cell{{Name: "hang", Spec: synthSpec{Campaign: "timeout", I: 0}, Run: hang}}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	opts := Options{CellTimeout: 5 * time.Millisecond, Retries: 1, Journal: path}
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
	journaled := false
	for _, rec := range journalRecords(t, path) {
		journaled = journaled || rec.Kind == "cell" && rec.Key == o.Key && rec.Class == "transient" && rec.Attempts == 2
	}
	if !journaled {
		t.Fatalf("timed-out cell not journaled: %+v", journalRecords(t, path))
	}

	opts.Resume = true
	resumed, err := Run(context.Background(), "timeout", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := resumed[0]; runs.Load() != 2 || !r.FromJournal || r.Class != ClassTransient || r.Err.Error() != o.Err.Error() {
		t.Fatalf("resume ran the cell (%d runs) or drifted: %+v", runs.Load(), r)
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

// TestCancelledCellsNotJournaled: a cancelled campaign journals nothing for
// the interrupted cells, so a resume re-runs them.
func TestCancelledCellsNotJournaled(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "j.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := synthCells("cancel", 4, nil)
	outcomes, err := Run(ctx, "cancel", cells, Options{Journal: journal})
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
	for _, rec := range journalRecords(t, journal) {
		if rec.Kind == "cell" {
			t.Fatalf("cancelled cell journaled: %+v", rec)
		}
	}
	// Resume after the abort: every cell runs fresh.
	outcomes, err = Run(context.Background(), "cancel", cells, Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Err != nil || o.FromJournal {
			t.Fatalf("cell %s after resume: err=%v fromJournal=%v", o.Name, o.Err, o.FromJournal)
		}
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

// TestJournalTornTailTolerated: a SIGKILL mid-append leaves a half-written
// final line; resume must shrug it off and re-run only that cell.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	cells := synthCells("torn", 3, nil)
	outcomes, err := Run(context.Background(), "torn", cells, Options{Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final line in half.
	data, _ := os.ReadFile(path)
	trimmed := data[:len(data)-1] // drop trailing newline
	cut := len(trimmed) - len(trimmed)/4
	if err := os.WriteFile(path, trimmed[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), "torn", cells, Options{Journal: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	fromJournal := 0
	for i, o := range resumed {
		if o.Err != nil {
			t.Fatalf("cell %s failed on resume: %v", o.Name, o.Err)
		}
		if string(o.Value) != string(outcomes[i].Value) {
			t.Fatalf("cell %s drifted across torn-tail resume:\n%s\nvs\n%s", o.Name, o.Value, outcomes[i].Value)
		}
		if o.FromJournal {
			fromJournal++
		}
	}
	if fromJournal != 2 {
		t.Fatalf("%d cells replayed from torn journal, want 2", fromJournal)
	}
}

// TestJournalValidation: corrupt middle lines, missing headers, wrong
// schemas, and wrong campaign names all refuse to resume.
func TestJournalValidation(t *testing.T) {
	header := fmt.Sprintf(`{"kind":"header","schema":%q,"campaign":"c"}`, JournalSchema)
	cases := []struct {
		name, content, wantErr string
	}{
		{"corrupt middle", header + "\n{garbage}\n" + `{"kind":"cell","key":"k"}` + "\n", "corrupt at line 2"},
		{"no header", `{"kind":"cell","key":"k"}` + "\n", "no header"},
		{"bad schema", `{"kind":"header","schema":"other/v9","campaign":"c"}` + "\n", "schema"},
		{"wrong campaign", fmt.Sprintf(`{"kind":"header","schema":%q,"campaign":"other"}`, JournalSchema) + "\n", "belongs to campaign"},
		{"unknown kind", header + "\n" + `{"kind":"mystery"}` + "\n", "unknown record kind"},
		{"cell without key", header + "\n" + `{"kind":"cell"}` + "\n", "without key"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := openJournal(path, "c", true, nil)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

// TestJournalLaterDuplicateWins: when a key appears twice (a re-run appended
// behind an earlier record), resume uses the later record.
func TestJournalLaterDuplicateWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := fmt.Sprintf(`{"kind":"header","schema":%q,"campaign":"c"}`, JournalSchema) + "\n" +
		`{"kind":"cell","key":"k","name":"n","attempts":1,"error":"first try","class":"transient"}` + "\n" +
		`{"kind":"cell","key":"k","name":"n","attempts":2,"value":{"fixed":true}}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(path, "c", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	rec, ok := j.prior["k"]
	if !ok || rec.Error != "" || string(rec.Value) != `{"fixed":true}` || rec.Attempts != 2 {
		t.Fatalf("later record did not win: %+v", rec)
	}
}

// TestJournalFreshTruncates: without -resume an existing journal is
// truncated, not appended to.
func TestJournalFreshTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	cells := synthCells("fresh", 2, nil)
	// One worker: the journal lists cells in completion order, so the two
	// files compare equal only when the cells finish in the same order.
	opts := Options{Journal: path, Workers: 1}
	if _, err := Run(context.Background(), "fresh", cells, opts); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)
	if _, err := Run(context.Background(), "fresh", cells, opts); err != nil {
		t.Fatal(err)
	}
	second, _ := os.ReadFile(path)
	if string(first) != string(second) {
		t.Fatalf("re-run without resume did not truncate:\n%s\nvs\n%s", first, second)
	}
}

// TestJournaledFailureReplaysOnResume: terminal failures are journaled too,
// so a resumed campaign preserves the degraded block byte-for-byte instead
// of silently re-running known-bad cells.
func TestJournaledFailureReplaysOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	boom := errors.New("deterministically broken")
	cells := synthCells("degjournal", 3, map[int]error{1: boom})
	opts := Options{Journal: path}
	noSleep(&opts)
	outcomes, err := Run(context.Background(), "degjournal", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	var reruns atomic.Int32
	cells[1].Run = func(ctx context.Context) (any, error) {
		reruns.Add(1)
		return nil, boom
	}
	resumed, err := Run(context.Background(), "degjournal", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reruns.Load() != 0 {
		t.Fatalf("journaled failure re-ran %d times on resume", reruns.Load())
	}
	if !resumed[1].FromJournal || resumed[1].Err == nil {
		t.Fatalf("failure not replayed from journal: %+v", resumed[1])
	}
	if resumed[1].Err.Error() != outcomes[1].Err.Error() || resumed[1].Class != outcomes[1].Class {
		t.Fatalf("degraded cell drifted across resume: %v (%v) vs %v (%v)",
			resumed[1].Err, resumed[1].Class, outcomes[1].Err, outcomes[1].Class)
	}
}
