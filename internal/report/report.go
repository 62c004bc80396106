// Package report renders the simulation server's HTML dashboard: a
// hierarchical suite -> matrix -> cell drilldown over bench, leakage, and
// conformance artifacts, defense-comparison tables in the style of the
// paper's Table V, benchdiff verdicts, and trend lines across committed
// BENCH_*.json history.
//
// Everything is server-rendered plain HTML + inline SVG — no scripts, no
// external assets — so the dashboard works from curl, CI artifact viewers,
// and air-gapped hosts. Every chart ships its table view alongside, colors
// follow the repo's validated categorical palette by fixed slot order, and
// all text wears ink tokens (never series colors), so identity is never
// carried by color alone.
package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"invisispec/internal/runner"
)

// JobRow is one job's dashboard summary (built by internal/serve from its
// job registry).
type JobRow struct {
	ID, Type, Name, State              string
	Completed, Failed, Total, Degraded int
	CacheHits, CacheMisses             int64
	Error                              string
}

// MetricsView is the index page's metrics tiles.
type MetricsView struct {
	HitRate                               float64
	Hits, Misses, FlightHits              uint64
	Corrupt                               uint64
	Entries                               int
	Bytes                                 int64
	QueueDepth, WorkersBusy, WorkersTotal int
}

// IndexData is the dashboard index page.
type IndexData struct {
	Jobs      []JobRow
	Metrics   MetricsView
	Draining  bool
	HasTrends bool
}

// HistoryPoint is one committed BENCH_*.json artifact's summary for the
// trend chart: per-defense average normalized execution time over the
// artifact's complete TSO groups.
type HistoryPoint struct {
	File     string // base name, the x-axis label
	Name     string // artifact's embedded name
	Runs     int
	Defenses []string           // defense order as first seen in the artifact
	Avg      map[string]float64 // defense -> avg normalized time (TSO)
}

// LoadHistory reads every BENCH_*.json in dir (sorted by file name, so the
// trend axis is deterministic) and summarizes each. Unreadable or
// wrong-schema files are skipped rather than failing the page — history
// directories accumulate artifacts from many eras.
func LoadHistory(dir string) ([]HistoryPoint, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []HistoryPoint
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		b, err := runner.ReadBenchJSON(f)
		f.Close()
		if err != nil {
			continue
		}
		out = append(out, summarize(filepath.Base(p), b))
	}
	return out, nil
}

// summarize reduces one artifact to its per-defense TSO-average normalized
// time.
func summarize(file string, b *runner.Bench) HistoryPoint {
	h := HistoryPoint{File: file, Name: b.Name, Runs: len(b.Runs), Avg: map[string]float64{}}
	sums := map[string]float64{}
	ns := map[string]int{}
	for _, r := range b.Runs {
		if r.Error != "" || r.Consistency != "TSO" || r.NormalizedTime == 0 {
			continue
		}
		if _, seen := sums[r.Defense]; !seen {
			h.Defenses = append(h.Defenses, r.Defense)
		}
		sums[r.Defense] += r.NormalizedTime
		ns[r.Defense]++
	}
	for _, d := range h.Defenses {
		h.Avg[d] = sums[d] / float64(ns[d])
	}
	return h
}

// benchView is the aggregated matrix the job page renders for sweeps.
type benchView struct {
	Defenses []string
	Sections []benchSection
	// Compare is the Table V-style defense comparison: one row per defense
	// with its per-model averages.
	Compare []compareRow
	// Drill is the selected cell's full run, when the page has one.
	Drill    *runner.BenchRun
	DrillKey string
}

type benchSection struct {
	Consistency string
	Rows        []benchRow
	Avg         map[string]float64 // defense -> avg normalized time
}

type benchRow struct {
	Workload string
	Seed     int64
	Cells    []benchCell
}

type benchCell struct {
	Key     string // run key, the drilldown link
	Norm    float64
	CPI     float64
	Err     string
	Present bool
}

type compareRow struct {
	Defense string
	Runs    int
	AvgCPI  float64
	// AvgNorm is per consistency model, keyed like the sections.
	AvgNorm map[string]float64
}

// buildBenchView aggregates an artifact into matrix order: defenses and
// workloads in first-appearance order (the artifact is matrix-ordered), one
// section per consistency model.
func buildBenchView(b *runner.Bench, drillKey string) *benchView {
	v := &benchView{DrillKey: drillKey}
	defSeen := map[string]bool{}
	type rowKey struct {
		cm, wk string
		seed   int64
	}
	rows := map[rowKey]*benchRow{}
	sections := map[string]*benchSection{}
	var cmOrder []string
	var rowOrder []rowKey

	for i := range b.Runs {
		r := &b.Runs[i]
		if !defSeen[r.Defense] {
			defSeen[r.Defense] = true
			v.Defenses = append(v.Defenses, r.Defense)
		}
		if sections[r.Consistency] == nil {
			sections[r.Consistency] = &benchSection{Consistency: r.Consistency, Avg: map[string]float64{}}
			cmOrder = append(cmOrder, r.Consistency)
		}
		rk := rowKey{r.Consistency, r.Workload, r.FaultSeed}
		if rows[rk] == nil {
			rows[rk] = &benchRow{Workload: r.Workload, Seed: r.FaultSeed}
			rowOrder = append(rowOrder, rk)
		}
		if r.RunKey() == drillKey {
			v.Drill = r
		}
	}
	// Second pass: place each run in its row slot by defense column.
	idx := map[string]int{}
	for i, d := range v.Defenses {
		idx[d] = i
	}
	for _, rk := range rowOrder {
		rows[rk].Cells = make([]benchCell, len(v.Defenses))
	}
	avgSum := map[string]map[string]float64{}
	avgN := map[string]map[string]int{}
	cmpCPI := map[string]float64{}
	cmpN := map[string]int{}
	cmpNorm := map[string]map[string]float64{}
	for _, r := range b.Runs {
		rk := rowKey{r.Consistency, r.Workload, r.FaultSeed}
		rows[rk].Cells[idx[r.Defense]] = benchCell{
			Key: r.RunKey(), Norm: r.NormalizedTime, CPI: r.CPI, Err: r.Error, Present: true,
		}
		if r.Error != "" {
			continue
		}
		if avgSum[r.Consistency] == nil {
			avgSum[r.Consistency] = map[string]float64{}
			avgN[r.Consistency] = map[string]int{}
		}
		if r.NormalizedTime > 0 {
			avgSum[r.Consistency][r.Defense] += r.NormalizedTime
			avgN[r.Consistency][r.Defense]++
			if cmpNorm[r.Defense] == nil {
				cmpNorm[r.Defense] = map[string]float64{}
			}
		}
		cmpCPI[r.Defense] += r.CPI
		cmpN[r.Defense]++
	}
	for _, cm := range cmOrder {
		sec := sections[cm]
		for _, rk := range rowOrder {
			if rk.cm == cm {
				sec.Rows = append(sec.Rows, *rows[rk])
			}
		}
		for _, d := range v.Defenses {
			if n := avgN[cm][d]; n > 0 {
				sec.Avg[d] = avgSum[cm][d] / float64(n)
			}
		}
		v.Sections = append(v.Sections, *sec)
	}
	for _, d := range v.Defenses {
		row := compareRow{Defense: d, Runs: cmpN[d], AvgNorm: map[string]float64{}}
		if cmpN[d] > 0 {
			row.AvgCPI = cmpCPI[d] / float64(cmpN[d])
		}
		for _, cm := range cmOrder {
			if n := avgN[cm][d]; n > 0 {
				row.AvgNorm[cm] = avgSum[cm][d] / float64(n)
			}
		}
		v.Compare = append(v.Compare, row)
	}
	return v
}

// seriesSlot maps a defense to its fixed categorical palette slot (1-based).
// The order is the defense registry's matrix order: color follows the
// entity, never its position in a particular chart, so a filtered matrix
// never repaints the survivors.
var seriesOrder = []string{"Base", "Fe-Sp", "IS-Sp", "Fe-Fu", "IS-Fu", "SpecBox", "BasicBlocker"}

func seriesSlot(defense string) int {
	for i, d := range seriesOrder {
		if d == defense {
			return i + 1
		}
	}
	// Unknown (later-registered) schemes fold onto slot 8 rather than
	// inventing a 9th hue.
	return 8
}

// fmtBytes renders a byte count for the metrics tiles.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// writeAll is the small error-collapsing writer the renderers share.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// esc HTML-escapes text content and attribute values.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
