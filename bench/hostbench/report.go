package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// run carries one workload run: its inputs, the oracle checks made so far,
// and the metrics it reports.
type run struct {
	ctx           context.Context
	workload      string
	seed          int64
	budget        time.Duration
	trace         bool
	writeExpected bool

	checks      checks
	metrics     map[string]metric
	samples     map[string]int
	notes       []string
	spans       *spanRecorder
	stopProfile func() error
	// host is nil in traced runs, whose per-layer times are raw.
	host *hostSpeed
}

func newRun(ctx context.Context, workload string, seed int64, budget time.Duration, trace, writeExpected bool) *run {
	r := &run{
		ctx: ctx, workload: workload, seed: seed, budget: budget,
		trace: trace, writeExpected: writeExpected,
		metrics: map[string]metric{},
		samples: map[string]int{},
		spans:   newSpanRecorder(),
	}
	if !trace {
		r.host = newHostSpeed()
	}
	return r
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// checks counts oracle comparisons: every cell output compared against a
// reference is one attempt, and a mismatch or an error is one failure.
type checks struct {
	attempted, failed int
	failures          []string
}

// maxFailureNotes caps how many failure messages a result file keeps.
const maxFailureNotes = 20

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < maxFailureNotes {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// summary is the result line: the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what a run leaves in bench/out for -compare and for people.
type resultFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	summary
	Samples  map[string]int `json:"samples"`
	Notes    []string       `json:"notes,omitempty"`
	Failures []string       `json:"failures,omitempty"`
	Spans    []span         `json:"spans,omitempty"`
}

// report checks the metric set against BENCHMARK.json, prints one line per
// metric, writes the result file, and prints the result line last.
func (r *run) report(w io.Writer, def *benchmarkDef) error {
	want := def.EndToEnd
	if r.trace {
		want = def.PerLayer
	}
	if err := checkEmitted(want, r.metrics); err != nil {
		return fmt.Errorf("%s: %w", r.workload, err)
	}
	if r.checks.attempted == 0 {
		return fmt.Errorf("%s: no output was checked", r.workload)
	}
	for _, m := range want {
		fmt.Fprintf(w, "%s %s %s\n", m.Name, formatValue(r.metrics[m.Name].Value), m.Unit)
	}
	fmt.Fprintf(w, "# failed_ratio %s (%d of %d checks)\n",
		formatValue(float64(r.checks.failed)/float64(r.checks.attempted)), r.checks.failed, r.checks.attempted)
	keys := make([]string, 0, len(r.samples))
	for k := range r.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# samples %s %d\n", k, r.samples[k])
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range r.checks.failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}

	s := summary{
		Correct:   r.checks.failed == 0,
		Attempted: r.checks.attempted,
		Failed:    r.checks.failed,
		Metrics:   r.metrics,
	}
	rf := resultFile{
		Workload: r.workload, Seed: r.seed, Seconds: int(r.budget / time.Second), Trace: r.trace,
		summary: s, Samples: r.samples, Notes: r.notes, Failures: r.checks.failures,
	}
	file := fmt.Sprintf("%s-s%d.json", r.workload, r.seed)
	if r.trace {
		rf.Spans = r.spans.finish()
		file = fmt.Sprintf("%s-s%d.trace.json", r.workload, r.seed)
	}
	if err := writeJSON(filepath.Join(outDir, file), rf); err != nil {
		return err
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// formatValue prints a measured value with all its digits and no exponent.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
