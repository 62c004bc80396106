package report

// HTML rendering. Pages are assembled with an error-collapsing writer rather
// than html/template: the dashboard's structure is data-driven (matrix
// shapes, SVG geometry) and the explicit form keeps every escape site
// visible. All dynamic strings pass through esc.

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"invisispec/internal/conform"
	"invisispec/internal/leakage"
	"invisispec/internal/runner"
)

// JobPage is the drilldown page for one job: the row summary plus the parsed
// artifact for whichever job type it is (at most one of Bench/Leakage/
// Conform is non-nil; all nil while the job is still running). Cell, when
// non-empty, selects one bench run key for the cell drilldown pane.
type JobPage struct {
	Job     JobRow
	Cell    string
	Bench   *runner.Bench
	Verdict *runner.DiffVerdict
	Leakage *leakage.Report
	Conform *conform.Report
}

// pageCSS carries the design tokens: chart chrome and the fixed-order
// categorical series palette (slots 1-8, validated light and dark), with
// dark mode as its own selected steps — not an automatic flip. Text always
// wears ink tokens; series colors only ever appear on marks and chips.
const pageCSS = `:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --panel: #f4f3ef;
  --good: #0ca30c; --critical: #d03b3b;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --baseline: #383835; --panel: #222220;
    --good: #27b327; --critical: #e66767;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
:root[data-theme="dark"] {
  --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
  --grid: #2c2c2a; --baseline: #383835; --panel: #222220;
  --good: #27b327; --critical: #e66767;
  --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
  --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 24px; max-width: 1100px;
  background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
a { color: var(--s1); text-decoration: none; }
a:hover { text-decoration: underline; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 14px; margin: 20px 0 6px; color: var(--ink-2); }
nav { margin-bottom: 20px; color: var(--ink-3); }
nav a { margin-right: 12px; }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th, td { text-align: left; padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.muted { color: var(--ink-3); }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 12px 0; }
.tile { background: var(--panel); border-radius: 6px; padding: 10px 14px; min-width: 120px; }
.tile .v { font-size: 22px; font-weight: 650; font-variant-numeric: tabular-nums; }
.tile .k { color: var(--ink-2); font-size: 12px; }
.state { font-weight: 600; }
.state-done::before { content: "\2713\00a0"; color: var(--good); }
.state-failed::before, .state-interrupted::before { content: "\2717\00a0"; color: var(--critical); }
.pass { color: var(--good); font-weight: 600; }
.fail { color: var(--critical); font-weight: 600; }
.banner { background: var(--panel); border-left: 3px solid var(--critical);
  padding: 8px 12px; margin: 12px 0; }
.chip { display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 6px; vertical-align: baseline; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 8px 0; color: var(--ink-2); }
.viol { color: var(--critical); font-weight: 600; }
svg text { fill: var(--ink-2); font: 12px system-ui, sans-serif; }
svg .axis { stroke: var(--baseline); }
svg .grid { stroke: var(--grid); }
`

func pageStart(e *errWriter, title string, trends bool) {
	e.printf("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	e.printf("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n")
	e.printf("<title>%s</title>\n<style>%s</style>\n</head>\n<body>\n", esc(title), pageCSS)
	e.printf("<h1>%s</h1>\n<nav><a href=\"/\">jobs</a>", esc(title))
	if trends {
		e.printf("<a href=\"/trends\">trends</a>")
	}
	e.printf("<a href=\"/metrics\">metrics</a></nav>\n")
}

func pageEnd(e *errWriter) {
	e.printf("</body>\n</html>\n")
}

func chip(slot int) string {
	return fmt.Sprintf("<span class=\"chip\" style=\"background:var(--s%d)\"></span>", slot)
}

// f3 formats a ratio-like value; dashes for absent.
func f3(v float64) string {
	if v == 0 {
		return "&#8212;"
	}
	return fmt.Sprintf("%.3f", v)
}

// RenderIndex writes the dashboard index: cache/pool metric tiles and the
// job table in submission order.
func RenderIndex(w io.Writer, d IndexData) error {
	e := &errWriter{w: w}
	pageStart(e, "invisispec simulation server", d.HasTrends)
	if d.Draining {
		e.printf("<p class=\"banner\">Server is draining: submissions are refused; in-flight cells are finishing.</p>\n")
	}

	m := d.Metrics
	e.printf("<h2>Cache &amp; workers</h2>\n<div class=\"tiles\">\n")
	tile := func(v, k string) {
		e.printf("<div class=\"tile\"><div class=\"v\">%s</div><div class=\"k\">%s</div></div>\n", v, esc(k))
	}
	tile(fmt.Sprintf("%.1f%%", m.HitRate*100), "cache hit rate")
	tile(fmt.Sprintf("%d / %d", m.Hits, m.Hits+m.Misses), "hits / lookups")
	tile(fmt.Sprintf("%d", m.FlightHits), "in-flight dedups")
	tile(fmt.Sprintf("%d", m.Entries), "entries ("+fmtBytes(m.Bytes)+")")
	tile(fmt.Sprintf("%d", m.Corrupt), "corrupt rejected")
	tile(fmt.Sprintf("%d / %d", m.WorkersBusy, m.WorkersTotal), "workers busy")
	tile(fmt.Sprintf("%d", m.QueueDepth), "queued cells")
	e.printf("</div>\n")

	e.printf("<h2>Jobs</h2>\n")
	if len(d.Jobs) == 0 {
		e.printf("<p class=\"muted\">No jobs yet. Submit one with <code>POST /api/v1/jobs</code>.</p>\n")
	} else {
		e.printf("<table>\n<tr><th>id</th><th>type</th><th>name</th><th>state</th>" +
			"<th class=\"num\">progress</th><th class=\"num\">cache hit/miss</th>" +
			"<th class=\"num\">degraded</th><th>error</th></tr>\n")
		for _, j := range d.Jobs {
			e.printf("<tr><td><a href=\"/jobs/%s\">%s</a></td><td>%s</td><td>%s</td>",
				esc(j.ID), esc(j.ID), esc(j.Type), esc(j.Name))
			e.printf("<td><span class=\"state state-%s\">%s</span></td>", esc(j.State), esc(j.State))
			e.printf("<td class=\"num\">%d/%d</td><td class=\"num\">%d/%d</td><td class=\"num\">%d</td><td class=\"muted\">%s</td></tr>\n",
				j.Completed, j.Total, j.CacheHits, j.CacheMisses, j.Degraded, esc(j.Error))
		}
		e.printf("</table>\n")
	}
	pageEnd(e)
	return e.err
}

// RenderJob writes one job's page: status summary, then the artifact view
// for its type — for sweeps the suite -> matrix -> cell drilldown plus the
// defense comparison and the benchdiff verdict.
func RenderJob(w io.Writer, p JobPage) error {
	e := &errWriter{w: w}
	pageStart(e, "job "+p.Job.ID+" — "+p.Job.Name, false)

	e.printf("<table>\n<tr><th>type</th><th>state</th><th class=\"num\">progress</th>" +
		"<th class=\"num\">cache hit/miss</th><th class=\"num\">degraded</th></tr>\n")
	e.printf("<tr><td>%s</td><td><span class=\"state state-%s\">%s</span></td>"+
		"<td class=\"num\">%d/%d</td><td class=\"num\">%d/%d</td><td class=\"num\">%d</td></tr>\n</table>\n",
		esc(p.Job.Type), esc(p.Job.State), esc(p.Job.State),
		p.Job.Completed, p.Job.Total, p.Job.CacheHits, p.Job.CacheMisses, p.Job.Degraded)
	if p.Job.Error != "" {
		e.printf("<p class=\"banner\">%s</p>\n", esc(p.Job.Error))
	}
	if p.Job.State == "done" {
		e.printf("<p><a href=\"/api/v1/jobs/%s/artifact\">artifact JSON</a></p>\n", esc(p.Job.ID))
	}

	switch {
	case p.Bench != nil:
		renderBench(e, p)
	case p.Leakage != nil:
		renderLeakage(e, p.Leakage)
	case p.Conform != nil:
		renderConform(e, p.Conform)
	default:
		e.printf("<p class=\"muted\">Artifact view appears once the job is done.</p>\n")
	}
	pageEnd(e)
	return e.err
}

// renderBench writes the sweep view: one normalized-time matrix per
// consistency model (cells link to the drilldown), the Table V-style defense
// comparison, the verdict checks, and — when a cell is selected — the full
// run record, each in the artifact's order of first appearance.
func renderBench(e *errWriter, p JobPage) {
	var defs, cms []string
	for _, r := range p.Bench.Runs {
		if !slices.Contains(defs, r.Defense) {
			defs = append(defs, r.Defense)
		}
		if !slices.Contains(cms, r.Consistency) {
			cms = append(cms, r.Consistency)
		}
	}
	groups := p.Bench.Groups()

	e.printf("<div class=\"legend\">")
	for _, d := range defs {
		e.printf("<span>%s%s</span>", chip(seriesSlot(d)), esc(d))
	}
	e.printf("</div>\n")

	avgs := make([]runner.Mean, len(cms))
	for k, cm := range cms {
		e.printf("<h2>Normalized execution time — %s</h2>\n<table>\n<tr><th>workload</th>", esc(cm))
		for _, d := range defs {
			e.printf("<th class=\"num\">%s</th>", esc(d))
		}
		e.printf("</tr>\n")
		for i := range groups {
			g := &groups[i]
			if g.Consistency != cm {
				continue
			}
			label := g.Workload
			if g.FaultSeed != 0 {
				label = fmt.Sprintf("%s (seed %d)", g.Workload, g.FaultSeed)
			}
			e.printf("<tr><td>%s</td>", esc(label))
			for _, d := range defs {
				r := g.Run(d)
				switch {
				case r == nil:
					e.printf("<td class=\"num muted\">&#8212;</td>")
				case r.Error != "":
					e.printf("<td class=\"num\"><a class=\"fail\" href=\"/jobs/%s?cell=%s\" title=\"%s\">err</a></td>",
						esc(p.Job.ID), esc(r.RunKey()), esc(r.Error))
				default:
					txt := fmt.Sprintf("%.3f&#8201;cpi", r.CPI) // no Base in group: show raw CPI
					if v, ok := g.Value(r, runner.Time); ok {
						txt = f3(v)
					}
					e.printf("<td class=\"num\"><a href=\"/jobs/%s?cell=%s\">%s</a></td>",
						esc(p.Job.ID), esc(r.RunKey()), txt)
				}
			}
			e.printf("</tr>\n")
		}
		avgs[k] = runner.Average(groups, runner.Time, func(g *runner.Group) bool { return g.Consistency == cm })
		e.printf("<tr><td class=\"muted\">average</td>")
		for _, d := range defs {
			e.printf("<td class=\"num\">%s</td>", f3(avgs[k].Value[d]))
		}
		e.printf("</tr>\n</table>\n")
	}

	e.printf("<h2>Defense comparison</h2>\n<table>\n<tr><th>defense</th><th class=\"num\">runs</th><th class=\"num\">avg CPI</th>")
	for _, cm := range cms {
		e.printf("<th class=\"num\">avg norm (%s)</th>", esc(cm))
	}
	e.printf("</tr>\n")
	cpi := runner.Average(groups, runner.CPI, nil)
	for _, d := range defs {
		e.printf("<tr><td>%s%s</td><td class=\"num\">%d</td><td class=\"num\">%.3f</td>",
			chip(seriesSlot(d)), esc(d), cpi.Runs[d], cpi.Value[d])
		for k := range cms {
			e.printf("<td class=\"num\">%s</td>", f3(avgs[k].Value[d]))
		}
		e.printf("</tr>\n")
	}
	e.printf("</table>\n")

	if p.Verdict != nil {
		renderVerdict(e, p.Verdict)
	}
	if drill, ok := p.Bench.RunsByKey()[p.Cell]; ok {
		renderDrill(e, &drill)
	} else if p.Cell != "" {
		e.printf("<p class=\"banner\">No run with key %s in this artifact.</p>\n", esc(p.Cell))
	}
}

func renderVerdict(e *errWriter, v *runner.DiffVerdict) {
	verdict, cls := "PASS", "pass"
	if !v.Pass {
		verdict, cls = "FAIL", "fail"
	}
	e.printf("<h2>Baseline verdict: <span class=\"%s\">%s</span></h2>\n", cls, verdict)
	e.printf("<p class=\"muted\">vs %s (tol %.2f, eps %.2f)</p>\n", esc(v.Baseline), v.Tol, v.Eps)
	e.printf("<table>\n<tr><th>check</th><th>key</th><th>result</th><th class=\"num\">base CPI</th>" +
		"<th class=\"num\">cand CPI</th><th class=\"num\">delta</th><th>detail</th></tr>\n")
	for _, c := range v.Checks {
		res, rc := "✓ pass", "pass"
		if !c.Pass {
			res, rc = "✗ fail", "fail"
		}
		e.printf("<tr><td>%s</td><td>%s</td><td class=\"%s\">%s</td>",
			esc(c.Kind), esc(c.Key), rc, res)
		if c.BaseCPI != 0 || c.CandCPI != 0 {
			e.printf("<td class=\"num\">%.4f</td><td class=\"num\">%.4f</td><td class=\"num\">%+.1f%%</td>",
				c.BaseCPI, c.CandCPI, c.Delta*100)
		} else {
			e.printf("<td class=\"num muted\">&#8212;</td><td class=\"num muted\">&#8212;</td><td class=\"num muted\">&#8212;</td>")
		}
		e.printf("<td class=\"muted\">%s</td></tr>\n", esc(c.Detail))
	}
	e.printf("</table>\n")
}

func renderDrill(e *errWriter, r *runner.BenchRun) {
	e.printf("<h2>Cell %s</h2>\n", esc(r.RunKey()))
	if r.Error != "" {
		e.printf("<p class=\"banner\">%s</p>\n", esc(r.Error))
		return
	}
	e.printf("<table>\n<tr><th>metric</th><th class=\"num\">value</th></tr>\n")
	row := func(k, v string) { e.printf("<tr><td>%s</td><td class=\"num\">%s</td></tr>\n", esc(k), v) }
	row("instructions", fmt.Sprintf("%d", r.Instructions))
	row("cycles", fmt.Sprintf("%d", r.Cycles))
	row("CPI", fmt.Sprintf("%.4f", r.CPI))
	row("normalized time", f3(r.NormalizedTime))
	row("traffic total (bytes)", fmt.Sprintf("%d", r.TrafficTotal))
	row("squashes", fmt.Sprintf("%d", r.Squashes))
	row("squashes / M inst", fmt.Sprintf("%.2f", r.SquashesPerMInst))
	row("exposures", fmt.Sprintf("%d", r.Exposures))
	row("validations", fmt.Sprintf("%d", r.Validations))
	row("LLC-SB hit rate", fmt.Sprintf("%.4f", r.LLCSBRate))
	row("DRAM reads", fmt.Sprintf("%d", r.DRAMReads))
	e.printf("</table>\n")
	if len(r.Traffic) > 0 {
		e.printf("<h3>Traffic by class</h3>\n<table>\n<tr><th>class</th><th class=\"num\">bytes</th></tr>\n")
		for _, k := range sortedKeys(r.Traffic) {
			e.printf("<tr><td>%s</td><td class=\"num\">%d</td></tr>\n", esc(k), r.Traffic[k])
		}
		e.printf("</table>\n")
	}
}

// renderLeakage writes the attack x defense verdict matrix, violations
// first.
func renderLeakage(e *errWriter, rep *leakage.Report) {
	viol := rep.Violations()
	e.printf("<h2>Leakage scan: %d cells, <span class=\"%s\">%d violations</span></h2>\n",
		len(rep.Cells), passClass(len(viol) == 0), len(viol))
	e.printf("<p class=\"muted\">corpus %s, %d trials per cell; * = leak expected by the defense matrix, ! = gate violation</p>\n",
		esc(rep.Name), rep.Trials)

	// Matrix: one row per (attack, template, secret), one column per defense.
	type rk struct {
		attack, template string
		secret           int
	}
	var order []rk
	cells := map[rk]map[string]leakage.Cell{}
	for _, c := range rep.Cells {
		k := rk{c.Attack, c.Template, c.Secret}
		if cells[k] == nil {
			cells[k] = map[string]leakage.Cell{}
			order = append(order, k)
		}
		cells[k][c.Defense] = c
	}
	e.printf("<table>\n<tr><th>attack</th>")
	for _, d := range rep.Defenses {
		e.printf("<th>%s</th>", esc(d))
	}
	e.printf("</tr>\n")
	for _, k := range order {
		e.printf("<tr><td>%s / %s / %#02x</td>", esc(k.attack), esc(k.template), k.secret)
		for _, d := range rep.Defenses {
			c, ok := cells[k][d]
			if !ok {
				e.printf("<td class=\"muted\">&#8212;</td>")
				continue
			}
			mark := c.Verdict.String()
			if c.ExpectedLeak {
				mark += "*"
			}
			cls := ""
			if c.Violation {
				mark += "!"
				cls = " class=\"viol\""
			}
			title := fmt.Sprintf("hit %.2f hot %.2f margin %.2f conf %.2f", c.HitRate, c.HotRate, c.Margin, c.Confidence)
			if c.Error != "" {
				title = c.Error
			}
			e.printf("<td%s title=\"%s\">%s</td>", cls, esc(title), esc(mark))
		}
		e.printf("</tr>\n")
	}
	e.printf("</table>\n")

	if len(viol) > 0 {
		e.printf("<h3>Violations</h3>\n<table>\n<tr><th>cell</th><th>verdict</th><th>expected</th><th>error</th></tr>\n")
		for _, c := range viol {
			e.printf("<tr><td>%s / %s / %#02x / %s</td><td class=\"fail\">%s</td><td>%s</td><td class=\"muted\">%s</td></tr>\n",
				esc(c.Attack), esc(c.Template), c.Secret, esc(c.Defense),
				esc(c.Verdict.String()), esc(c.Expected.String()), esc(c.Error))
		}
		e.printf("</table>\n")
	}
}

func renderConform(e *errWriter, rep *conform.Report) {
	ok := rep.Diverging == 0 && rep.Errors == 0
	e.printf("<h2>Conformance: %d programs, <span class=\"%s\">%d diverging, %d errors</span></h2>\n",
		rep.Programs, passClass(ok), rep.Diverging, rep.Errors)
	e.printf("<p class=\"muted\">seed %#x; configs: %s</p>\n", rep.Seed, esc(strings.Join(rep.Configs, ", ")))
	if ok {
		e.printf("<p class=\"pass\">✓ every program conforms to the golden interpreter under every configuration.</p>\n")
		return
	}
	e.printf("<table>\n<tr><th class=\"num\">program</th><th class=\"num\">insts</th><th>divergences / error</th></tr>\n")
	for _, r := range rep.Runs {
		if len(r.Divergences) == 0 && r.Error == "" {
			continue
		}
		e.printf("<tr><td class=\"num\">%d (seed %#x)</td><td class=\"num\">%d</td><td>", r.Index, r.Seed, r.Insts)
		if r.Error != "" {
			e.printf("<span class=\"fail\">%s</span>", esc(r.Error))
		}
		for i, d := range r.Divergences {
			if i > 0 || r.Error != "" {
				e.printf("<br>")
			}
			e.printf("<span class=\"fail\">%s</span>: %s", esc(d.Config), esc(d.Reason))
		}
		e.printf("</td></tr>\n")
	}
	e.printf("</table>\n")
}

func passClass(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
