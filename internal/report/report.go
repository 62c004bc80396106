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
	avg := runner.Average(b.Groups(), runner.Time, func(g *runner.Group) bool { return g.Consistency == "TSO" })
	return HistoryPoint{File: file, Name: b.Name, Runs: len(b.Runs), Defenses: avg.Defenses, Avg: avg.Value}
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
