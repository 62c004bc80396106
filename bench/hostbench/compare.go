package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// compareSets prints, for every workload both sets of result files cover,
// each metric's median and quartiles before and after, and how much worse
// the after median is. An end-to-end metric worse by more than its bound is
// flagged REGRESSION; one whose before spread already exceeds its bound is
// flagged UNRESOLVED unless every after run beats every before run. The
// error names the regressions, so scripts can gate on the exit code.
func compareSets(w io.Writer, def *benchmarkDef, beforeGlob, afterGlob string) error {
	before, err := loadResults(beforeGlob)
	if err != nil {
		return err
	}
	after, err := loadResults(afterGlob)
	if err != nil {
		return err
	}
	regressions := 0
	for _, wl := range workloadNames() {
		for _, traced := range []bool{false, true} {
			key := resultKey{wl, traced}
			b, a := before[key], after[key]
			if len(b) == 0 || len(a) == 0 {
				continue
			}
			metrics := def.EndToEnd
			if traced {
				metrics = def.PerLayer
			}
			fmt.Fprintf(w, "%s (trace %v): %d before runs (%d failed), %d after runs (%d failed)\n",
				wl, traced, len(b), countFailed(b), len(a), countFailed(a))
			for _, m := range metrics {
				verdict := compareMetric(w, m, values(b, m.Name), values(a, m.Name))
				if verdict == "REGRESSION" {
					regressions++
				}
			}
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bounds", regressions)
	}
	return nil
}

// compareMetric prints one metric's line and returns its verdict.
func compareMetric(w io.Writer, m metricDef, b, a []float64) string {
	bm, am := median(b), median(a)
	bq1, bq3 := quartiles(b)
	aq1, aq3 := quartiles(a)
	worse := ratio(am-bm, bm)
	if m.Better == "higher" {
		worse = -worse
	}
	verdict := ""
	if m.Bound != nil {
		switch {
		case ratio(bq3-bq1, bm) > *m.Bound && !allBetter(m, a, b):
			verdict = "UNRESOLVED"
		case worse > *m.Bound:
			verdict = "REGRESSION"
		default:
			verdict = "ok"
		}
	}
	fmt.Fprintf(w, "  %-26s before %-12.6g [%.6g, %.6g]  after %-12.6g [%.6g, %.6g]  worse by %+.2f%%  %s\n",
		m.Name, bm, bq1, bq3, am, aq1, aq3, 100*worse, verdict)
	return verdict
}

// allBetter reports whether every after value beats every before value.
func allBetter(m metricDef, after, before []float64) bool {
	for _, x := range after {
		for _, y := range before {
			if (m.Better == "lower" && x >= y) || (m.Better == "higher" && x <= y) {
				return false
			}
		}
	}
	return len(after) > 0 && len(before) > 0
}

type resultKey struct {
	workload string
	traced   bool
}

// loadResults reads every result file the glob matches, grouped by
// workload and by whether the run was traced.
func loadResults(glob string) (map[resultKey][]resultFile, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	out := map[resultKey][]resultFile{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		k := resultKey{rf.Workload, rf.Trace}
		out[k] = append(out[k], rf)
	}
	return out, nil
}

func values(rs []resultFile, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func countFailed(rs []resultFile) int {
	n := 0
	for _, r := range rs {
		if !r.Correct {
			n++
		}
	}
	return n
}
