package report

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"invisispec/internal/runner"
)

func loadBaseline(t *testing.T) *runner.Bench {
	t.Helper()
	f, err := os.Open("../../BENCH_baseline.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	defer f.Close()
	b, err := runner.ReadBenchJSON(f)
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	return b
}

func TestRenderIndex(t *testing.T) {
	var sb strings.Builder
	d := IndexData{
		Jobs: []JobRow{
			{ID: "j1", Type: "sweep", Name: "smoke", State: "done", Completed: 70, Total: 70, CacheHits: 70},
			{ID: "j2", Type: "leakscan", Name: "x<y", State: "failed", Error: "boom <script>"},
		},
		Metrics:   MetricsView{HitRate: 0.5, Hits: 7, Misses: 7, Entries: 14, WorkersTotal: 4},
		HasTrends: true,
	}
	if err := RenderIndex(&sb, d); err != nil {
		t.Fatalf("RenderIndex: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!doctype html>", "/jobs/j1", "50.0%", "x&lt;y", "boom &lt;script&gt;",
		"href=\"/trends\"", "prefers-color-scheme: dark",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("index page missing %q", want)
		}
	}
	if strings.Contains(out, "<script>") {
		t.Error("unescaped script tag in output")
	}
}

func TestRenderJobBench(t *testing.T) {
	b := loadBaseline(t)
	page := JobPage{
		Job:   JobRow{ID: "j1", Type: "sweep", Name: b.Name, State: "done", Total: len(b.Runs)},
		Bench: b,
	}
	var sb strings.Builder
	if err := RenderJob(&sb, page); err != nil {
		t.Fatalf("RenderJob: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"Normalized execution time — TSO", "Defense comparison", "IS-Fu", "?cell=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("job page missing %q", want)
		}
	}

	// Drilldown: pick the first run's key and re-render.
	key := b.Runs[0].RunKey()
	page.Cell = key
	sb.Reset()
	if err := RenderJob(&sb, page); err != nil {
		t.Fatalf("RenderJob with cell: %v", err)
	}
	if !strings.Contains(sb.String(), "Cell "+key) {
		t.Errorf("drilldown pane missing for %q", key)
	}
}

// writeHistoryFixture writes two synthetic history points, BENCH_a.json and
// BENCH_b.json, plus a wrong-schema BENCH_c.json that LoadHistory must skip.
func writeHistoryFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i, name := range []string{"BENCH_a.json", "BENCH_b.json"} {
		b := &runner.Bench{Schema: runner.BenchSchema, Name: name, Warmup: 10, Measure: 100}
		// Normalized time comes from CPI within each group; the RC group
		// normalizes too, and the TSO-only trend must leave it out.
		for _, w := range []string{"mcf", "sjeng"} {
			b.Runs = append(b.Runs,
				runner.BenchRun{Workload: w, Defense: "Base", Consistency: "TSO", CPI: 2},
				runner.BenchRun{Workload: w, Defense: "IS-Fu", Consistency: "TSO", CPI: 2 * (1.1 + 0.1*float64(i))},
				runner.BenchRun{Workload: w, Defense: "Base", Consistency: "RC", CPI: 1},
				runner.BenchRun{Workload: w, Defense: "IS-Fu", Consistency: "RC", CPI: 9})
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.WriteBenchJSON(f, b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_c.json"), []byte(`{"schema":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestLoadHistoryAndRenderTrends(t *testing.T) {
	hist, err := LoadHistory(writeHistoryFixture(t))
	if err != nil {
		t.Fatalf("LoadHistory: %v", err)
	}
	if len(hist) != 2 || hist[0].File != "BENCH_a.json" || hist[1].File != "BENCH_b.json" {
		t.Fatalf("history = %+v, want BENCH_a.json then BENCH_b.json", hist)
	}
	for i, want := range []float64{1.1, 1.2} {
		h := hist[i]
		if len(h.Defenses) != 2 || h.Avg["Base"] != 1 || math.Abs(h.Avg["IS-Fu"]-want) > 1e-9 {
			t.Errorf("history point %s: defenses %v, averages %v; want Base 1 and TSO-only IS-Fu %v",
				h.File, h.Defenses, h.Avg, want)
		}
	}
	var sb strings.Builder
	if err := RenderTrends(&sb, hist); err != nil {
		t.Fatalf("RenderTrends: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"<svg", "<polyline", "Table view", "var(--s1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("trends page missing %q", want)
		}
	}
}

func TestRenderTrendsEmpty(t *testing.T) {
	var sb strings.Builder
	if err := RenderTrends(&sb, nil); err != nil {
		t.Fatalf("RenderTrends(nil): %v", err)
	}
	if !strings.Contains(sb.String(), "No BENCH_") {
		t.Error("empty-history message missing")
	}
}
