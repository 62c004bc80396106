package runner

import (
	"math"
	"os"
	"testing"
)

// lawBench synthesizes an artifact holding every shape the means must
// handle, under both models and two fault seeds: mcf normalizes plainly,
// hmmer's Base moves under trafficFloor, sjeng's Base failed, and gcc's
// IS-Fu failed.
func lawBench() *Bench {
	b := &Bench{Schema: BenchSchema, Name: "law"}
	run := func(w, cm string, seed int64, d string, cycles, bytes uint64) BenchRun {
		return BenchRun{Workload: w, Defense: d, Consistency: cm, FaultSeed: seed,
			Instructions: 1000, Cycles: cycles, CPI: float64(cycles) / 1000, TrafficTotal: bytes}
	}
	for _, seed := range []int64{0, 7} {
		for _, cm := range []string{"TSO", "RC"} {
			failed := run("sjeng", cm, seed, "Base", 0, 0)
			failed.Error = "boom"
			gccIS := run("gcc", cm, seed, "IS-Fu", 0, 0)
			gccIS.Error = "boom"
			b.Runs = append(b.Runs,
				run("mcf", cm, seed, "Base", 3000, 4000),
				run("mcf", cm, seed, "IS-Fu", 3300, 6000+uint64(seed)),
				run("hmmer", cm, seed, "Base", 1100, 10),
				run("hmmer", cm, seed, "IS-Fu", 1300, 20),
				failed,
				run("sjeng", cm, seed, "IS-Fu", 1500, 300),
				run("gcc", cm, seed, "Base", 1700, 900),
				gccIS)
		}
	}
	return b
}

// TestBaseAveragesExactlyOne is the law every normalized figure rests on:
// under each consistency model, Base's mean normalized time and traffic
// are exactly 1, on the committed baseline and on an artifact with a
// floored row, failed runs, a group without Base and a second fault seed.
func TestBaseAveragesExactlyOne(t *testing.T) {
	f, err := os.Open("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := ReadBenchJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]*Bench{"BENCH_baseline.json": baseline, "synthetic": lawBench()} {
		groups := b.Groups()
		for _, m := range []Metric{Time, Traffic} {
			for _, cm := range []string{"TSO", "RC"} {
				avg := Average(groups, m, func(g *Group) bool { return g.Consistency == cm })
				if avg.Groups == 0 || avg.Value["Base"] != 1 {
					t.Errorf("%s: metric %d %s: Base mean %v over %d groups, want exactly 1",
						name, m, cm, avg.Value["Base"], avg.Groups)
				}
			}
		}
	}
}

// TestAverageSkipsWhatDoesNotNormalize pins which groups and runs the
// synthetic artifact's means count.
func TestAverageSkipsWhatDoesNotNormalize(t *testing.T) {
	groups := lawBench().Groups()
	if len(groups) != 16 {
		t.Fatalf("%d groups, want 16 (4 workloads x 2 models x 2 seeds)", len(groups))
	}
	for _, g := range groups {
		if len(g.Runs) != 2 || (g.Base == nil) != (g.Workload == "sjeng") || g.Floored() != (g.Workload == "hmmer") {
			t.Errorf("group %s/%s/%d: %d runs, Base %v, floored %v", g.Workload, g.Consistency, g.FaultSeed,
				len(g.Runs), g.Base != nil, g.Floored())
		}
	}
	tso := func(g *Group) bool { return g.Consistency == "TSO" }
	// Time: every group with a Base run, over both seeds; gcc's IS-Fu failed.
	tm := Average(groups, Time, tso)
	if tm.Groups != 6 || tm.Runs["Base"] != 6 || tm.Runs["IS-Fu"] != 4 {
		t.Errorf("time: %d groups, runs %v; want 6 groups, 6 Base and 4 IS-Fu", tm.Groups, tm.Runs)
	}
	if want := (1.1 + 1.1 + 13.0/11 + 13.0/11) / 4; math.Abs(tm.Value["IS-Fu"]-want) > 1e-12 {
		t.Errorf("time: IS-Fu mean %v, want %v", tm.Value["IS-Fu"], want)
	}
	// Traffic: hmmer is floored, so only mcf's IS-Fu counts.
	tr := Average(groups, Traffic, tso)
	if tr.Groups != 4 || tr.Runs["IS-Fu"] != 2 {
		t.Errorf("traffic: %d groups, runs %v; want 4 groups and 2 IS-Fu", tr.Groups, tr.Runs)
	}
	if want := (1.5 + 6007.0/4000) / 2; math.Abs(tr.Value["IS-Fu"]-want) > 1e-12 {
		t.Errorf("traffic: IS-Fu mean %v, want %v", tr.Value["IS-Fu"], want)
	}
	// A floored row still prints its floor-normalized value.
	hmmer := &groups[1]
	if v, ok := hmmer.Value(hmmer.Run("IS-Fu"), Traffic); !ok || math.Abs(v-0.32) > 1e-12 {
		t.Errorf("floored hmmer IS-Fu traffic %v (%v), want 0.32", v, ok)
	}
}
