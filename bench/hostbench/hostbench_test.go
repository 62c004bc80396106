package main

import (
	"context"
	"math"
	"slices"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/runner"
	"invisispec/internal/workload"
)

// The tests run from bench/hostbench; BENCHMARK.json is at the root.
const benchmarkFromTest = "../../" + benchmarkPath

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 2, 4}, 1.25, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{2.5, 7.1, 0.3, 9.9, 4.4, 6.0, 1.2, 8.8, 3.3, 5.5}, 2.175, 7.5249999999999995},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestTailPercentileNeedsTenSamplesBeyond checks that a tail percentile is
// reported only when at least ten samples lie beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 0, false},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending, so the function must sort
		}
		p, v, ok := tailPercentile(xs)
		if ok != c.ok || p != c.p {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.p, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%v = %v has %d samples beyond it, want at least 10", c.n, p, v, beyond)
		}
	}
}

// TestHostSpeedAllocatesNothing checks that the reference kernel allocates
// nothing: if it did, a simulator that left more garbage could slow it
// through the collector and so hide a slowdown of its own.
func TestHostSpeedAllocatesNothing(t *testing.T) {
	h := newHostSpeed()
	if n := testing.AllocsPerRun(2, func() { h.sample() }); n != 0 {
		t.Errorf("the reference kernel allocates %v objects per sample", n)
	}
	if f, err := h.around(func() error { return nil }); err != nil || f <= 0 {
		t.Errorf("slowdown %v, error %v; want a positive slowdown", f, err)
	}
}

// TestBenchmarkJSON checks the committed BENCHMARK.json against the
// program, and that validate refuses files outside the limits.
func TestBenchmarkJSON(t *testing.T) {
	def, err := loadBenchmark(benchmarkFromTest)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range def.PerLayer {
		listed[m.Name] = m.Unit
	}
	for _, v := range (&layerPass{}).values() {
		if unit, ok := listed[v.name]; !ok || unit != v.unit {
			t.Errorf("traced pass measures %s in %s; BENCHMARK.json lists it in %q", v.name, v.unit, unit)
		}
	}

	bound := func(b float64) *float64 { return &b }
	mutations := map[string]func(d *benchmarkDef){
		"run_seconds 0":          func(d *benchmarkDef) { d.RunSeconds = 0 },
		"run_seconds 61":         func(d *benchmarkDef) { d.RunSeconds = 61 },
		"unimplemented workload": func(d *benchmarkDef) { d.Workloads[0].Name = "no-such-workload" },
		"missing workload":       func(d *benchmarkDef) { d.Workloads = d.Workloads[1:] },
		"nine workloads": func(d *benchmarkDef) {
			for len(d.Workloads) < 9 {
				d.Workloads = append(d.Workloads, d.Workloads[0])
			}
		},
		"two-line why":     func(d *benchmarkDef) { d.Workloads[0].Why = "a\nb" },
		"duplicate name":   func(d *benchmarkDef) { d.PerLayer[1].Name = d.PerLayer[0].Name },
		"bad name":         func(d *benchmarkDef) { d.PerLayer[0].Name = "core tick" },
		"bad unit":         func(d *benchmarkDef) { d.EndToEnd[0].Unit = "seconds per run" },
		"bad direction":    func(d *benchmarkDef) { d.EndToEnd[0].Better = "less" },
		"bound above 0.25": func(d *benchmarkDef) { d.EndToEnd[0].Bound = bound(0.3) },
		"no bound":         func(d *benchmarkDef) { d.EndToEnd[0].Bound = nil },
		"per-layer bound":  func(d *benchmarkDef) { d.PerLayer[0].Bound = bound(0.1) },
		"no per-layer":     func(d *benchmarkDef) { d.PerLayer = nil },
		"17 end-to-end": func(d *benchmarkDef) {
			for i := len(d.EndToEnd); i < 17; i++ {
				d.EndToEnd = append(d.EndToEnd, metricDef{Name: "m" + string(rune('a'+i)), Unit: "s", Better: "lower", Bound: bound(0.1)})
			}
		},
		"no setup_s": func(d *benchmarkDef) {
			d.EndToEnd = slices.DeleteFunc(d.EndToEnd, func(m metricDef) bool { return m.Name == "setup_s" })
		},
	}
	for name, mutate := range mutations {
		d, err := loadBenchmark(benchmarkFromTest)
		if err != nil {
			t.Fatal(err)
		}
		mutate(d)
		if d.validate() == nil {
			t.Errorf("%s: validate accepted the file", name)
		}
	}
}

// TestCheckEmitted checks that a run's metric set must be exactly the
// listed one, in the listed units.
func TestCheckEmitted(t *testing.T) {
	want := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	if err := checkEmitted(want, map[string]metric{"a": {1, "s"}, "b": {2, "ms"}}); err != nil {
		t.Errorf("exact set refused: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":    {"a": {1, "s"}},
		"not listed": {"a": {1, "s"}, "b": {2, "ms"}, "c": {3, "s"}},
		"wrong unit": {"a": {1, "ms"}, "b": {2, "ms"}},
	} {
		if checkEmitted(want, got) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTracedCellEqualsHarness checks that a sweep cell rebuilt from the
// public constructors, with every component wrapped in a timer, gives the
// row harness.MeasureWorkload gives under either kernel. A change to how
// sim.New assembles a machine or how the harness runs it fails here.
func TestTracedCellEqualsHarness(t *testing.T) {
	for _, name := range []string{"hmmer", "mcf"} {
		j := runner.Matrix([]string{name}, false, tso, []config.Defense{config.Base}, nil, 500, 1500)[0]
		row := func(res harness.Result) runner.BenchRun {
			return runner.NewBench("test", j.Warmup, j.Measure, []runner.JobResult{{Job: j, Result: res}}).Runs[0]
		}
		r := newRun(context.Background(), "test", 1, 0, true, false)
		traced, err := sweep{matrix: []runner.Job{j}}.tracedCell(r, r.spans.start(name, 0), j, &layerPass{})
		if err != nil {
			t.Fatalf("%s: traced cell: %v", name, err)
		}
		for _, k := range []engine.Kernel{engine.KernelFast, engine.KernelStepped} {
			want, err := harness.MeasureWorkload(name, j.Defense, j.Consistency, j.Warmup, j.Measure, harness.WithKernel(k))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, k, err)
			}
			if !jsonEqual(row(want), row(traced)) {
				t.Errorf("%s: traced row %+v, %s kernel row %+v", name, row(traced), k, row(want))
			}
		}
	}
}

// TestTracedTrialEqualsHarness checks the same for a leak-scan trial run to
// completion: the traced machine must light the same probe lines.
func TestTracedTrialEqualsHarness(t *testing.T) {
	c := leakCell{spec: leakCorpus(1)[0], defense: config.Base}
	r := newRun(context.Background(), "test", 1, 0, true, false)
	traced, err := tracedTrial(r, r.spans.start("trial", 0), c, &layerPass{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []engine.Kernel{engine.KernelFast, engine.KernelStepped} {
		progs, err := c.spec.Programs()
		if err != nil {
			t.Fatal(err)
		}
		m, err := harness.Complete(c.run(), c.spec.ID, progs, leakMaxCycles, harness.WithKernel(k))
		if err != nil {
			t.Fatalf("%s kernel: %v", k, err)
		}
		if want := workload.ScanLatencies(m.Mem, c.spec.ResultsBase(), c.spec.ResultLines()); !slices.Equal(want, traced) {
			t.Errorf("traced latencies %v, %s kernel %v", traced, k, want)
		}
	}
}
