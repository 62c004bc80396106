package runner

import (
	"math"
	"strings"
	"testing"

	"invisispec/internal/config"
)

// diffBench synthesizes a one-workload artifact covering every registered
// defense under TSO, with Base at baseCPI and every secure scheme at
// secureCPI (InvisiSpec schemes get isCPI so the average ordering is
// controllable).
func diffBench(name string, baseCPI, secureCPI, isCPI float64) *Bench {
	b := &Bench{Schema: BenchSchema, Name: name}
	for _, d := range config.AllDefenses() {
		cpi := secureCPI
		switch d {
		case config.Base:
			cpi = baseCPI
		case config.ISSpectre, config.ISFuture:
			cpi = isCPI
		}
		b.Runs = append(b.Runs, BenchRun{
			Workload: "wk", Defense: d.String(), Consistency: "TSO",
			Instructions: 1000, Cycles: uint64(cpi * 1000), CPI: cpi,
		})
	}
	return b
}

func checksByKind(v *DiffVerdict, kind string) []DiffCheck {
	var out []DiffCheck
	for _, c := range v.Checks {
		if c.Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

func TestCompareBenchPass(t *testing.T) {
	base := diffBench("base", 1.0, 3.0, 2.0)
	cand := diffBench("cand", 1.0, 3.0, 2.0)
	v := CompareBench(base, cand, 0.10, 0.02)
	if !v.Pass || v.Problems != 0 {
		t.Fatalf("identical artifacts: pass=%v problems=%d checks=%+v", v.Pass, v.Problems, v.Failed())
	}
	if v.Schema != DiffSchema {
		t.Fatalf("schema %q", v.Schema)
	}
	if n := len(checksByKind(v, CheckRegression)); n != len(base.Runs) {
		t.Fatalf("%d regression checks for %d baseline runs", n, len(base.Runs))
	}
	// One complete TSO group -> one base-fastest check + the two TSO
	// average-ordering checks.
	if n := len(checksByKind(v, CheckShapeBase)); n != 1 {
		t.Fatalf("%d base-fastest checks, want 1", n)
	}
	if n := len(checksByKind(v, CheckShapeAverage)); n != 2 {
		t.Fatalf("%d average checks, want 2", n)
	}
}

func TestCompareBenchCPIRegression(t *testing.T) {
	base := diffBench("base", 1.0, 3.0, 2.0)
	cand := diffBench("cand", 1.0, 3.0, 2.0)
	// Regress one run 20% past a 10% tolerance.
	cand.Runs[1].CPI *= 1.2
	v := CompareBench(base, cand, 0.10, 0.02)
	if v.Pass || v.Problems != 1 {
		t.Fatalf("pass=%v problems=%d", v.Pass, v.Problems)
	}
	f := v.Failed()[0]
	if f.Kind != CheckRegression || !strings.Contains(f.Detail, "regressed") {
		t.Fatalf("failed check = %+v", f)
	}
	if f.Delta < 0.19 || f.Delta > 0.21 {
		t.Fatalf("delta = %v, want ~0.2", f.Delta)
	}
}

func TestCompareBenchShapeInversion(t *testing.T) {
	base := diffBench("base", 1.0, 3.0, 2.0)
	// Base slower than every secure scheme: both the per-group check and the
	// regression check for Base's run fire... regression only if CPI rose, so
	// keep baseline matching the (inverted) candidate to isolate shape.
	cand := diffBench("cand", 5.0, 3.0, 2.0)
	baseInv := diffBench("base", 5.0, 3.0, 2.0)
	v := CompareBench(baseInv, cand, 0.10, 0.02)
	if v.Pass {
		t.Fatal("inverted shape passed")
	}
	shape := checksByKind(v, CheckShapeBase)
	if len(shape) != 1 || shape[0].Pass {
		t.Fatalf("shape checks = %+v", shape)
	}
	if !strings.Contains(shape[0].Detail, "Base") {
		t.Fatalf("detail %q", shape[0].Detail)
	}
	_ = base
}

func TestCompareBenchISVsFenceAverage(t *testing.T) {
	// InvisiSpec slower than fences on the average: the two average checks
	// must fail while per-group Base-fastest still passes.
	cand := diffBench("cand", 1.0, 2.0, 4.0)
	base := diffBench("base", 1.0, 2.0, 4.0)
	v := CompareBench(base, cand, 0.10, 0.02)
	avg := checksByKind(v, CheckShapeAverage)
	if len(avg) != 2 || avg[0].Pass || avg[1].Pass {
		t.Fatalf("average checks = %+v", avg)
	}
	for _, c := range checksByKind(v, CheckShapeBase) {
		if !c.Pass {
			t.Fatalf("base-fastest unexpectedly failed: %+v", c)
		}
	}
}

func TestCompareBenchMissingRun(t *testing.T) {
	base := diffBench("base", 1.0, 3.0, 2.0)
	cand := diffBench("cand", 1.0, 3.0, 2.0)
	cand.Runs = cand.Runs[:len(cand.Runs)-1]
	v := CompareBench(base, cand, 0.10, 0.02)
	found := false
	for _, c := range v.Failed() {
		found = found || strings.Contains(c.Detail, "missing from candidate")
	}
	if !found {
		t.Fatalf("missing-run check absent: %+v", v.Failed())
	}
}

// TestShapeAverageCountsInvertedGroups: a complete group whose Base is
// slower than IS-Sp (a per-group inversion the paper's own bars show)
// still adds every defense to the IS-vs-fence averages.
func TestShapeAverageCountsInvertedGroups(t *testing.T) {
	cand := diffBench("cand", 1.0, 3.0, 2.0)
	for _, r := range diffBench("cand", 5.0, 6.0, 4.0).Runs {
		r.Workload = "inverted"
		cand.Runs = append(cand.Runs, r)
	}
	v := CompareBench(cand, cand, 0.10, 0.02)
	avg := checksByKind(v, CheckShapeAverage)
	if len(avg) != 2 {
		t.Fatalf("average checks = %+v", avg)
	}
	// Both groups count: IS (2/1 + 4/5)/2, fence (3/1 + 6/5)/2.
	for _, c := range avg {
		if math.Abs(c.CandCPI-1.4) > 1e-12 || math.Abs(c.BaseCPI-2.1) > 1e-12 {
			t.Errorf("%s: IS %v vs fence %v, want 1.4 vs 2.1", c.Key, c.CandCPI, c.BaseCPI)
		}
	}
}
