package runner

// This file reads a bench artifact the way the paper's figures do, and is
// the only code that does: runs grouped by (workload, consistency, fault
// seed), normalized to their group's Base run, and averaged per model.
// NewBench, benchtable, benchdiff and the dashboard all read it.

import "invisispec/internal/config"

// Metric is a per-run value a figure plots.
type Metric int

const (
	// Time is CPI over the group's Base CPI (Figures 4 and 7).
	Time Metric = iota
	// Traffic is bytes per instruction over the group's Base run's, with
	// Base's floored at trafficFloor (Figures 6 and 8).
	Traffic
	// CPI is the run's own CPI, normalized to nothing.
	CPI
)

// trafficFloor is the fewest bytes per instruction Traffic divides by. A
// fully cache-resident Base run moves almost no bytes; dividing by those
// would turn noise into bars, so its group normalizes against the floor
// (and reads as ~0) and is Floored.
const trafficFloor = 1.0 / 16

// Group is the runs of one workload under one consistency model and fault
// seed: the runs a figure normalizes to the same Base run.
type Group struct {
	Workload    string
	Consistency string
	FaultSeed   int64
	// Runs are the group's runs in artifact order, failed ones included.
	Runs []*BenchRun
	// Base is the group's (last) successful Base run, nil without one.
	Base *BenchRun
}

// Groups partitions the artifact's runs into groups, in the order each
// group's first run appears. The groups share one slice of run pointers,
// a window each.
func (b *Bench) Groups() []Group {
	runs := make([]*BenchRun, len(b.Runs))
	var groups []Group
	// Count each group's runs in the length of its Runs, then give each
	// group its window and fill the windows in artifact order.
	for i := range b.Runs {
		r := &b.Runs[i]
		g := groupOf(groups, r)
		if g == nil {
			groups = append(groups, Group{Workload: r.Workload, Consistency: r.Consistency, FaultSeed: r.FaultSeed})
			g = &groups[len(groups)-1]
		}
		g.Runs = runs[:len(g.Runs)+1]
	}
	off := 0
	for i := range groups {
		k := len(groups[i].Runs)
		groups[i].Runs, off = runs[off:off:off+k], off+k
	}
	for i := range b.Runs {
		r := &b.Runs[i]
		g := groupOf(groups, r)
		g.Runs = append(g.Runs, r)
		if r.Defense == config.Base.String() && r.Error == "" {
			g.Base = r
		}
	}
	return groups
}

// groupOf returns the group r belongs to, nil without one.
func groupOf(groups []Group, r *BenchRun) *Group {
	for i := range groups {
		g := &groups[i]
		if g.Workload == r.Workload && g.Consistency == r.Consistency && g.FaultSeed == r.FaultSeed {
			return g
		}
	}
	return nil
}

// Run returns the group's run under defense, nil without one.
func (g *Group) Run(defense string) *BenchRun {
	for _, r := range g.Runs {
		if r.Defense == defense {
			return r
		}
	}
	return nil
}

// Floored reports whether the group's Base run moves fewer than
// trafficFloor bytes per instruction. Its Traffic values are normalized to
// the floor, not to Base, so no mean counts them.
func (g *Group) Floored() bool {
	return g.Base != nil && bytesPerInstr(g.Base) < trafficFloor
}

// Value returns r's m in this group, and false when it has none: r failed,
// or m normalizes and the group has no successful Base run with a nonzero
// denominator.
func (g *Group) Value(r *BenchRun, m Metric) (float64, bool) {
	if r.Error != "" {
		return 0, false
	}
	switch m {
	case Time:
		if g.Base == nil || g.Base.CPI <= 0 {
			return 0, false
		}
		return r.CPI / g.Base.CPI, true
	case Traffic:
		if g.Base == nil || g.Base.Instructions == 0 || r.Instructions == 0 {
			return 0, false
		}
		return bytesPerInstr(r) / max(bytesPerInstr(g.Base), trafficFloor), true
	}
	return r.CPI, true
}

func bytesPerInstr(r *BenchRun) float64 {
	return float64(r.TrafficTotal) / float64(r.Instructions)
}

// Mean is each defense's mean of one metric over a set of groups: a
// figure's average row.
type Mean struct {
	// Groups counts the groups averaged.
	Groups int
	// Defenses lists the defenses with a mean, in the order first seen.
	Defenses []string
	// Value is each defense's mean; Runs counts the values behind it.
	Value map[string]float64
	Runs  map[string]int
}

// Average means m over the groups keep accepts (nil keeps every group).
// Each defense's mean runs over the kept groups in which its run has a
// value, summed in group order. A normalized metric skips groups without a
// successful Base run, and Traffic also skips Floored groups, so Base's
// normalized mean is exactly 1.
func Average(groups []Group, m Metric, keep func(*Group) bool) Mean {
	out := Mean{Value: map[string]float64{}, Runs: map[string]int{}}
	for i := range groups {
		g := &groups[i]
		if keep != nil && !keep(g) || m != CPI && g.Base == nil || m == Traffic && g.Floored() {
			continue
		}
		out.Groups++
		for _, r := range g.Runs {
			v, ok := g.Value(r, m)
			if !ok {
				continue
			}
			if _, seen := out.Value[r.Defense]; !seen {
				out.Defenses = append(out.Defenses, r.Defense)
			}
			out.Value[r.Defense] += v
			out.Runs[r.Defense]++
		}
	}
	for d, n := range out.Runs {
		out.Value[d] /= float64(n)
	}
	return out
}
