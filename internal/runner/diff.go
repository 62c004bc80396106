package runner

// This file implements the structured bench-comparison verdict behind
// cmd/benchdiff and the simulation server's /verdict endpoint: the same two
// check families the CLI has always gated CI with — shape fidelity inside
// the candidate and CPI regression against the baseline — but recorded as a
// typed, schema-versioned check list instead of free text, so the dashboard
// and CI consume gate results without parsing stderr.

import (
	"fmt"
	"sort"

	"invisispec/internal/config"
)

// DiffSchema identifies the verdict format (benchdiff -json).
const DiffSchema = "benchdiff-verdict/v1"

// Check kinds.
const (
	// CheckShapeBase verifies the insecure Base is the fastest config in one
	// complete (workload, consistency, seed) group.
	CheckShapeBase = "shape/base-fastest"
	// CheckShapeAverage verifies an InvisiSpec scheme beats its fence
	// counterpart averaged over one consistency model's complete groups.
	CheckShapeAverage = "shape/is-beats-fence"
	// CheckRegression verifies one baseline run exists in the candidate,
	// succeeded, and kept its CPI within tolerance.
	CheckRegression = "regression/cpi"
)

// DiffCheck is one verdict line: a single comparison with its outcome.
type DiffCheck struct {
	Kind string `json:"kind"`
	// Key names what was checked: a run key for regression checks, a group
	// key for per-group shape checks, a "<cm> average" label for the
	// figure-average shape checks.
	Key  string `json:"key"`
	Pass bool   `json:"pass"`
	// Detail is the human-readable failure explanation ("" on pass).
	Detail string `json:"detail,omitempty"`
	// BaseCPI/CandCPI/Delta carry the regression numbers (Delta is the
	// relative CPI change, candidate over baseline minus one). For shape
	// checks BaseCPI/CandCPI carry the two compared quantities instead.
	BaseCPI float64 `json:"base_cpi,omitempty"`
	CandCPI float64 `json:"cand_cpi,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
}

// DiffVerdict is the full machine-readable gate result.
type DiffVerdict struct {
	Schema    string      `json:"schema"`
	Baseline  string      `json:"baseline"`  // baseline artifact name
	Candidate string      `json:"candidate"` // candidate artifact name
	Tol       float64     `json:"tol"`       // CPI regression tolerance
	Eps       float64     `json:"eps"`       // shape-ordering slack ratio
	Pass      bool        `json:"pass"`
	Problems  int         `json:"problems"` // failed checks
	Checks    []DiffCheck `json:"checks"`
}

// Failed returns the failing checks in verdict order.
func (v *DiffVerdict) Failed() []DiffCheck {
	var out []DiffCheck
	for _, c := range v.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// CompareBench runs both check families — shape fidelity inside the
// candidate, CPI regression of the candidate against the baseline — and
// returns every check's outcome. tol is the maximum allowed relative CPI
// regression; eps is the slack ratio for ordering comparisons. The check
// list is deterministic: groups and run keys emit in sorted order.
func CompareBench(base, cand *Bench, tol, eps float64) *DiffVerdict {
	v := &DiffVerdict{
		Schema:    DiffSchema,
		Baseline:  base.Name,
		Candidate: cand.Name,
		Tol:       tol,
		Eps:       eps,
	}
	v.Checks = append(v.Checks, shapeChecks(cand, eps)...)
	v.Checks = append(v.Checks, regressionChecks(base, cand, tol)...)
	v.Pass = true
	for _, c := range v.Checks {
		if !c.Pass {
			v.Pass = false
			v.Problems++
		}
	}
	return v
}

// shapeChecks verifies the paper's qualitative ordering inside the candidate
// artifact: within every complete group (Groups) the insecure Base must be
// fastest, and on each consistency model's average over its complete
// groups InvisiSpec must beat the corresponding fence scheme.
func shapeChecks(cand *Bench, eps float64) []DiffCheck {
	groups := cand.Groups()
	// A partial matrix (e.g. a table6 artifact) has nothing to order, and
	// a failed run is reported by the regression pass.
	complete := func(g *Group) bool {
		for _, d := range config.AllDefenses() {
			if r := g.Run(d.String()); r == nil || r.Error != "" {
				return false
			}
		}
		return true
	}
	// Checks and averages run in group-key order, so the verdict does not
	// depend on the artifact's run order.
	key := func(g *Group) string { return fmt.Sprintf("%s/%s/seed%d", g.Workload, g.Consistency, g.FaultSeed) }
	sort.Slice(groups, func(i, j int) bool { return key(&groups[i]) < key(&groups[j]) })

	var checks []DiffCheck
	for i := range groups {
		g := &groups[i]
		if !complete(g) {
			continue
		}
		c := DiffCheck{Kind: CheckShapeBase, Key: key(g), Pass: true, BaseCPI: g.Base.CPI}
		for _, d := range config.AllDefenses() {
			if r := g.Run(d.String()); d != config.Base && g.Base.CPI > r.CPI*(1+eps) {
				c.Pass = false
				c.CandCPI = r.CPI
				c.Detail = fmt.Sprintf("shape inverted: insecure Base (CPI %.4f) slower than %s (CPI %.4f)",
					g.Base.CPI, d, r.CPI)
				break
			}
		}
		checks = append(checks, c)
	}
	for _, cm := range []string{config.TSO.String(), config.RC.String()} {
		avg := Average(groups, Time, func(g *Group) bool { return g.Consistency == cm && complete(g) })
		if avg.Groups == 0 {
			continue
		}
		pair := func(is, fence config.Defense, why string) DiffCheck {
			i, f := avg.Value[is.String()], avg.Value[fence.String()]
			c := DiffCheck{
				Kind:    CheckShapeAverage,
				Key:     fmt.Sprintf("%s average: %s vs %s", cm, is, fence),
				Pass:    true,
				BaseCPI: f,
				CandCPI: i,
			}
			if i > f*(1+eps) {
				c.Pass = false
				c.Detail = fmt.Sprintf("shape inverted over %d workloads: %s (%.3fx) slower than %s (%.3fx) — %s",
					avg.Groups, is, i, fence, f, why)
			}
			return c
		}
		checks = append(checks,
			pair(config.ISSpectre, config.FenceSpectre, "InvisiSpec must beat fences for the Spectre threat model"),
			pair(config.ISFuture, config.FenceFuture, "InvisiSpec must beat fences for the futuristic threat model"))
	}
	return checks
}

// regressionChecks compares the candidate's runs against the baseline's.
func regressionChecks(base, cand *Bench, tol float64) []DiffCheck {
	var checks []DiffCheck
	candByKey := cand.RunsByKey()
	baseByKey := base.RunsByKey()
	for _, key := range base.SortedRunKeys() {
		b := baseByKey[key]
		if b.Error != "" {
			continue // a broken baseline run gates nothing
		}
		ch := DiffCheck{Kind: CheckRegression, Key: key, BaseCPI: b.CPI}
		c, ok := candByKey[key]
		switch {
		case !ok:
			ch.Detail = "present in baseline, missing from candidate"
		case c.Error != "":
			ch.Detail = "candidate run failed: " + c.Error
		case c.Instructions == 0:
			ch.Detail = "candidate run retired no instructions"
		default:
			ch.CandCPI = c.CPI
			if b.CPI > 0 {
				ch.Delta = c.CPI/b.CPI - 1
			}
			if c.CPI > b.CPI*(1+tol) {
				ch.Detail = fmt.Sprintf("CPI regressed %.4f -> %.4f (+%.1f%%, tolerance %.0f%%)",
					b.CPI, c.CPI, 100*ch.Delta, tol*100)
			} else {
				ch.Pass = true
			}
		}
		checks = append(checks, ch)
	}
	return checks
}
