// Command benchtable regenerates every figure and table of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index):
//
//	benchtable -fig 4      SPEC normalized execution time (5 configs, TSO + RC average)
//	benchtable -fig 5      Spectre PoC latencies (delegates to the attack)
//	benchtable -fig 6      SPEC normalized network traffic with SpecLoad/Expose-Validate split
//	benchtable -fig 7      PARSEC normalized execution time
//	benchtable -fig 8      PARSEC normalized network traffic
//	benchtable -table 6    InvisiSpec operation characterization
//	benchtable -table 7    L1-SB / LLC-SB hardware overhead
//
// -measure scales the per-run instruction budget. The experiment matrix is
// swept by campaign.Sweep across -jobs workers (default: all host CPUs);
// each run is an isolated single-goroutine machine, and the aggregated
// output is byte-identical to a -jobs 1 run. -benchjson additionally writes
// the schema-versioned BENCH artifact that cmd/benchdiff gates CI with.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"invisispec/internal/artifact"
	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/hwcost"
	"invisispec/internal/runner"
	"invisispec/internal/stats"
	"invisispec/internal/workload"
)

var (
	figure  = flag.Int("fig", 0, "figure to regenerate (4, 6, 7 or 8); 5 is leakscan -fig5")
	table   = flag.Int("table", 0, "table to regenerate (6 or 7)")
	warmup  = flag.Uint64("warmup", 20000, "warmup instructions per run")
	measure = flag.Uint64("measure", 100000, "measured instructions per run")
	names   = flag.String("names", "", "comma-separated workload subset (default: all)")
	defsF   = flag.String("defenses", "", "comma-separated defense-scheme subset (default: all registered; see invisisim -listdefenses); figures need Base in the subset for normalization")
	csvPath = flag.String("csv", "", "also write every raw measurement to this CSV file")
	jobsN   = flag.Int("jobs", runtime.NumCPU(), "parallel simulation jobs (worker pool size)")
	seedsF  = flag.String("faultseeds", "", "comma-separated fault-injection seeds: adds a seed axis to the matrix (0 or empty = fault-free)")
	bjPath  = flag.String("benchjson", "", "also write the aggregated measurements as a bench-JSON artifact to this file")
	bjName  = flag.String("benchname", "", "artifact name inside -benchjson (default: fig<N>/table<N>)")
	bjHost  = flag.Bool("benchhost", true, "include the host wall-time block in -benchjson output (disable for committed baselines)")
	cmpK    = flag.Bool("comparekernels", false, "re-run the matrix under the cycle-by-cycle stepped kernel, fail unless its results are byte-identical to the fast kernel's, and record both wall times in the -benchjson host block")
	impDir  = flag.String("import", "", "import *.trace files from this directory as workloads (selectable via -names)")
	quiet   = flag.Bool("quiet", false, "suppress per-job progress lines on stderr")

	// campaignFlags registers the uniform -cache/-retries resilience
	// flags (internal/campaign).
	campaignFlags = campaign.AddFlags(flag.CommandLine)

	csvW *csv.Writer
)

// fail prints the error and exits non-zero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtable:", err)
	os.Exit(1)
}

// csvOpen starts the raw-measurement CSV if requested. The returned closer
// flushes and surfaces any buffered write error: CI must not be able to
// upload a silently truncated CSV.
func csvOpen() func() {
	if *csvPath == "" {
		return func() {}
	}
	f, err := os.Create(*csvPath)
	if err != nil {
		fail(err)
	}
	csvW = csv.NewWriter(f)
	csvW.Write([]string{
		"workload", "defense", "consistency", "fault_seed", "instructions",
		"cycles", "cpi",
		"traffic_total", "traffic_normal", "traffic_specload", "traffic_valexp",
		"traffic_writeback", "traffic_fetch", "exposures", "validations_l1hit",
		"validations_l1miss", "validation_failures", "squashes_per_minst",
		"llcsb_hit_rate", "dram_reads",
	})
	return func() {
		csvW.Flush()
		if err := csvW.Error(); err != nil {
			f.Close()
			fail(fmt.Errorf("writing %s: %w", *csvPath, err))
		}
		if err := f.Close(); err != nil {
			fail(fmt.Errorf("closing %s: %w", *csvPath, err))
		}
	}
}

func csvRow(jr runner.JobResult) {
	if csvW == nil {
		return
	}
	r := jr.Result
	c := r.Core
	csvW.Write([]string{
		r.Workload, r.Run.Defense.String(), r.Run.Consistency.String(),
		fmt.Sprint(jr.Job.FaultSeed),
		fmt.Sprint(r.Instructions), fmt.Sprint(r.Cycles),
		fmt.Sprintf("%.4f", r.CPI()),
		fmt.Sprint(r.TotalTraffic()),
		fmt.Sprint(r.Traffic[stats.TrafficNormal]),
		fmt.Sprint(r.Traffic[stats.TrafficSpecLoad]),
		fmt.Sprint(r.Traffic[stats.TrafficValExp]),
		fmt.Sprint(r.Traffic[stats.TrafficWriteback]),
		fmt.Sprint(r.Traffic[stats.TrafficFetch]),
		fmt.Sprint(c.Exposures), fmt.Sprint(c.ValidationsL1Hit),
		fmt.Sprint(c.ValidationsL1Miss), fmt.Sprint(c.ValidationFailures),
		fmt.Sprintf("%.1f", c.SquashesPerMInst()),
		fmt.Sprintf("%.4f", r.LLCSBRate),
		fmt.Sprint(r.DRAMReads),
	})
}

func main() {
	flag.Parse()
	// Imported workloads must exist before any cell runs.
	if *impDir != "" {
		if _, err := workload.ImportDir(*impDir); err != nil {
			fail(err)
		}
	}
	csvClose = csvOpen()
	switch {
	case *figure == 4, *figure == 6, *figure == 7, *figure == 8:
		normFigure(*figure)
	case *table == 6:
		table6()
	case *table == 7:
		table7()
	default:
		fmt.Fprintln(os.Stderr, "benchtable: pick one of -fig 4|6|7|8 or -table 6|7")
		os.Exit(2)
	}
	csvClose()
}

// csvClose flushes the CSV sink; set by main, also invoked by the degraded
// exit path so a sweep that completes with failed cells still lands its CSV.
var csvClose = func() {}

// reproFor builds the ready-to-run command reproducing one degraded cell.
func reproFor(name string, j runner.Job) string {
	var sel string
	switch {
	case strings.HasPrefix(name, "fig"):
		sel = "-fig " + strings.TrimPrefix(name, "fig")
	case strings.HasPrefix(name, "table"):
		sel = "-table " + strings.TrimPrefix(name, "table")
	default:
		sel = "-fig 4"
	}
	cmd := fmt.Sprintf("go run ./cmd/benchtable %s -names %s -warmup %d -measure %d -jobs 1",
		sel, j.Workload, j.Warmup, j.Measure)
	if j.FaultSeed != 0 {
		cmd += fmt.Sprintf(" -faultseeds %d", j.FaultSeed)
	}
	return cmd
}

// runMatrix sweeps the jobs through campaign.Sweep (cached cells and typed
// retries — see the -cache/-retries flags), records every measurement in
// the CSV and bench-JSON sinks, and degrades gracefully:
// cells that fail permanently land in the artifact's degraded block with a
// repro command and the sweep exits non-zero after writing everything,
// instead of aborting on first error.
//
// -comparekernels is the CI-level half of the kernel-equivalence oracle
// (the unit-level half is internal/sim's TestKernelEquivalence): a second
// pass of the same campaign sweeps the matrix under the cycle-by-cycle
// reference stepper, sharing the first pass's -cache, and the sweep fails
// unless the deterministic bench payload — every counter of every run — is
// byte-identical to the fast kernel's. Both passes' wall times land in the
// artifact's quarantined host block, so benchdiff trajectories record the
// fast-forward speedup without gating on it. Cells served from -cache do
// not simulate, so their wall time is a read and the comparison covers
// the values the cache holds: measure the speedup from an empty cache.
func runMatrix(jobs []runner.Job, name string) ([]runner.JobResult, *runner.Bench) {
	artName := name
	if *bjName != "" {
		artName = *bjName
	}
	repro := func(j runner.Job) string { return reproFor(name, j) }
	copts, err := campaignFlags.Options()
	if err != nil {
		fail(err)
	}
	copts.Workers = *jobsN
	if !*quiet {
		copts.Progress = os.Stderr
	}
	start := time.Now()
	results, b, err := campaign.Sweep(context.Background(), artName, jobs, engine.KernelFast, copts, repro)
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)
	for _, r := range results {
		if r.Err == nil {
			csvRow(r)
		}
	}
	if *bjHost {
		b.WithHost(wall, *jobsN, results)
	}
	if *cmpK {
		if len(b.Degraded) > 0 {
			fail(fmt.Errorf("-comparekernels: %d cell(s) degraded, cannot certify kernel equivalence", len(b.Degraded)))
		}
		start = time.Now()
		_, stepped, err := campaign.Sweep(context.Background(), artName, jobs, engine.KernelStepped, copts, repro)
		if err != nil {
			fail(fmt.Errorf("stepped-kernel rerun: %w", err))
		}
		steppedWall := time.Since(start)
		if campaign.PrintDegraded(os.Stderr, "benchtable", stepped.Degraded) {
			fail(fmt.Errorf("stepped-kernel rerun: %d cell(s) degraded", len(stepped.Degraded)))
		}
		fastPayload, err := b.DeterministicPayload()
		if err != nil {
			fail(err)
		}
		steppedPayload, err := stepped.DeterministicPayload()
		if err != nil {
			fail(err)
		}
		if !bytes.Equal(fastPayload, steppedPayload) {
			fail(fmt.Errorf("kernel equivalence violated: stepped and fast payloads differ over %d jobs\n--- fast ---\n%s\n--- stepped ---\n%s",
				len(jobs), fastPayload, steppedPayload))
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "kernels: %d jobs byte-identical; fast %s vs stepped %s (%.2fx)\n",
				len(jobs), wall.Round(time.Millisecond), steppedWall.Round(time.Millisecond),
				float64(steppedWall)/float64(wall))
		}
		if *bjHost {
			b.WithKernelWall(engine.KernelFast.String(), wall)
			b.WithKernelWall(engine.KernelStepped.String(), steppedWall)
		}
	}
	campaignFlags.Close(os.Stderr, "benchtable")
	if *bjPath != "" {
		if err := artifact.Write(*bjPath, func(w io.Writer) error {
			return runner.WriteBenchJSON(w, b)
		}); err != nil {
			fail(err)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "runner: %d jobs in %s at -jobs %d\n",
			len(jobs), wall.Round(time.Millisecond), *jobsN)
	}
	if campaign.PrintDegraded(os.Stderr, "benchtable", b.Degraded) {
		// The artifact and CSV are complete (minus the degraded cells);
		// the human-readable tables would just divide by missing baselines.
		csvClose()
		os.Exit(1)
	}
	return results, b
}

// seedAxis parses -faultseeds. Empty means the fault-free single-seed
// matrix (seed 0). With several seeds, every run repeats once per seed:
// the printed tables show the first seed's rows, while the CSV and
// bench-JSON artifacts carry the full seed axis (benchdiff groups by seed).
func seedAxis() []int64 {
	if *seedsF == "" {
		return nil
	}
	var out []int64
	for _, s := range strings.Split(*seedsF, ",") {
		var v int64
		if _, err := fmt.Sscan(strings.TrimSpace(s), &v); err != nil {
			fail(fmt.Errorf("bad -faultseeds entry %q: %w", s, err))
		}
		out = append(out, v)
	}
	return out
}

// firstSeed is the seed whose rows the human-readable tables print.
func firstSeed() int64 {
	if s := seedAxis(); len(s) > 0 {
		return s[0]
	}
	return 0
}

// selectDefenses resolves -defenses through the registry. The figures
// normalize against Base, so the subset must include it there.
func selectDefenses(needBase bool) []config.Defense {
	defs, err := config.ParseDefenses(*defsF)
	if err != nil {
		fail(err)
	}
	if needBase {
		hasBase := false
		for _, d := range defs {
			hasBase = hasBase || d == config.Base
		}
		if !hasBase {
			fail(fmt.Errorf("-defenses %q: figures normalize against Base; include it in the subset", *defsF))
		}
	}
	return defs
}

// selectNames resolves -names through the workload registry: the default
// is the figure's bench suite, and an explicit subset is validated up
// front so an unknown name fails with the sorted-suggestion error before
// any simulation runs, instead of mid-sweep.
func selectNames(parsec bool) []string {
	if *names == "" {
		return workload.SuiteNames(parsec)
	}
	var out []string
	for _, n := range strings.Split(*names, ",") {
		n = strings.TrimSpace(n)
		if _, err := workload.Lookup(n); err != nil {
			fail(err)
		}
		out = append(out, n)
	}
	return out
}

// column is one figure column: a defense's normalized value or, with share
// set, the share of that defense's bytes in one traffic class.
type column struct {
	head  string
	def   config.Defense
	share bool
	class stats.TrafficClass
}

// figureColumns lays out a figure's columns along the defense axis. With
// shares, every invisible-load scheme gets its Spec-GetS and
// expose/validate share columns right after its own, so a newly
// registered scheme lands in the figure without a layout edit.
func figureColumns(defs []config.Defense, shares bool) []column {
	var cols []column
	for _, d := range defs {
		cols = append(cols, column{head: d.String(), def: d})
		if shares && d.UsesInvisiSpec() {
			cols = append(cols,
				column{head: "spec%", def: d, share: true, class: stats.TrafficSpecLoad},
				column{head: "ve%", def: d, share: true, class: stats.TrafficValExp})
		}
	}
	return cols
}

// colWidth sizes a column for its heading: the classic 8-character figure
// column unless the defense name (e.g. BasicBlocker) needs more.
func colWidth(c string) int {
	if len(c)+1 > 8 {
		return len(c) + 1
	}
	return 8
}

func header(cols []column) {
	fmt.Printf("%-12s", "workload")
	for _, c := range cols {
		fmt.Printf("%*s", colWidth(c.head), c.head)
	}
	fmt.Println()
}

// printRow prints one figure row under cols: norm[def] in a defense's
// column, share(c) in a share column, and blank share columns when share
// is nil (the average rows); mark, if any, follows the last column.
func printRow(label string, cols []column, norm map[string]float64, share func(column) float64, mark string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", label)
	for _, c := range cols {
		switch w := colWidth(c.head); {
		case !c.share:
			fmt.Fprintf(&b, "%*.2f", w, norm[c.def.String()])
		case share != nil:
			fmt.Fprintf(&b, "%*.1f", w, share(c))
		default:
			fmt.Fprintf(&b, "%*s", w, "")
		}
	}
	fmt.Println(strings.TrimRight(b.String(), " ") + mark)
}

var bothModels = []config.Consistency{config.TSO, config.RC}

// normFigure prints one normalized figure: a TSO row per workload, then
// the TSO and RC average rows, from the first fault seed's groups.
// Figures 4 (SPEC) and 7 (PARSEC) show execution time normalized to Base;
// Figures 6 (SPEC) and 8 (PARSEC) show network traffic normalized to Base,
// with every invisible-load scheme's bytes split into Spec-GetS and
// expose/validate shares. The whole name x model x defense matrix runs
// through the worker pool before anything prints.
func normFigure(which int) {
	parsec := which == 7 || which == 8
	traffic := which == 6 || which == 8
	defs := selectDefenses(true)
	_, b := runMatrix(
		runner.Matrix(selectNames(parsec), parsec, bothModels, defs, seedAxis(), *warmup, *measure),
		fmt.Sprintf("fig%d", which))

	suite := "SPEC"
	if parsec {
		suite = "PARSEC"
	}
	metric := runner.Time
	if traffic {
		metric = runner.Traffic
		fmt.Printf("Figure %d: normalized network traffic, %s\n", which, suite)
		fmt.Printf("(spec%%/ve%% = share of the invisible-load config's bytes from Spec-GetS / expose+validate;\n")
		fmt.Printf(" rows where the baseline moves under 1/16 B/instr — cache-resident kernels —\n")
		fmt.Printf(" normalize against that floor instead, are marked floored and stay out of\n")
		fmt.Printf(" both average rows)\n\n")
	} else {
		fmt.Printf("Figure %d: normalized execution time, %s (higher is slower)\n\n", which, suite)
	}
	cols := figureColumns(defs, traffic)
	header(cols)

	groups := b.Groups()
	printed := func(cm config.Consistency) func(*runner.Group) bool {
		return func(g *runner.Group) bool { return g.Consistency == cm.String() && g.FaultSeed == firstSeed() }
	}
	for i := range groups {
		if g := &groups[i]; printed(config.TSO)(g) {
			norm := make(map[string]float64, len(g.Runs))
			for _, r := range g.Runs {
				norm[r.Defense], _ = g.Value(r, metric)
			}
			mark := ""
			if traffic && g.Floored() {
				mark = "  floored"
			}
			printRow(g.Workload, cols, norm, func(c column) float64 {
				r := g.Run(c.def.String())
				if r.TrafficTotal == 0 {
					return 0
				}
				return 100 * float64(r.Traffic[c.class.String()]) / float64(r.TrafficTotal)
			}, mark)
		}
	}
	printRow("average", cols, runner.Average(groups, metric, printed(config.TSO)).Value, nil, "")
	printRow("RC-average", cols, runner.Average(groups, metric, printed(config.RC)).Value, nil, "")
}

// table6 prints the InvisiSpec operation characterization (paper Table VI)
// for IS-Sp and IS-Fu under TSO, both suites through one pool run.
func table6() {
	isDefs := []config.Defense{config.ISSpectre, config.ISFuture}
	tso := []config.Consistency{config.TSO}
	jobs := runner.Matrix(selectNames(false), false, tso, isDefs, seedAxis(), *warmup, *measure)
	jobs = append(jobs, runner.Matrix(selectNames(true), true, tso, isDefs, seedAxis(), *warmup, *measure)...)
	results, _ := runMatrix(jobs, "table6")

	fmt.Println("Table VI: characterization of InvisiSpec's operation under TSO")
	fmt.Println("(Sp = IS-Spectre, Fu = IS-Future)")
	fmt.Println()
	fmt.Printf("%-14s %-6s %7s %7s %7s %9s %7s %7s %7s %7s %7s\n",
		"workload", "cfg", "expo%", "valL1h%", "valL1m%", "sq/Minst",
		"br%", "cons%", "vfail%", "SBhit%", "LLCSB%")
	for _, r := range results {
		printTable6Row(r.Job.Workload, r.Job.Defense, r.Result)
	}
}

func printTable6Row(name string, d config.Defense, r harness.Result) {
	c := r.Core
	cfg := "Sp"
	if d == config.ISFuture {
		cfg = "Fu"
	}
	ve := float64(c.Exposures + c.Validations())
	if ve == 0 {
		ve = 1
	}
	squashes := float64(c.TotalSquashes())
	if squashes == 0 {
		squashes = 1
	}
	sbTotal := float64(c.SBReuseHits + c.SBReuseMisses)
	if sbTotal == 0 {
		sbTotal = 1
	}
	fmt.Printf("%-14s %-6s %7.1f %7.1f %7.1f %9.0f %7.1f %7.1f %7.1f %7.1f %7.1f\n",
		name, cfg,
		100*float64(c.Exposures)/ve,
		100*float64(c.ValidationsL1Hit)/ve,
		100*float64(c.ValidationsL1Miss)/ve,
		c.SquashesPerMInst(),
		100*float64(c.Squashes[stats.SquashBranch])/squashes,
		100*float64(c.Squashes[stats.SquashConsistency]+c.Squashes[stats.SquashEarly])/squashes,
		100*float64(c.Squashes[stats.SquashValidation])/squashes,
		100*float64(c.SBReuseHits)/sbTotal,
		100*r.LLCSBRate)
}

// table7 prints the hardware-overhead estimates (paper Table VII).
func table7() {
	m := config.Default(1)
	fmt.Println("Table VII: per-core hardware overhead of InvisiSpec (16 nm)")
	fmt.Println()
	fmt.Printf("%-28s %10s %10s\n", "Metric", "L1-SB", "LLC-SB")
	l1 := hwcost.L1SB(m).Estimate()
	llc := hwcost.LLCSB(m).Estimate()
	fmt.Printf("%-28s %10.4f %10.4f\n", "Area (mm^2)", l1.AreaMM2, llc.AreaMM2)
	fmt.Printf("%-28s %10.1f %10.1f\n", "Access time (ps)", l1.AccessPS, llc.AccessPS)
	fmt.Printf("%-28s %10.1f %10.1f\n", "Dynamic read energy (pJ)", l1.ReadPJ, llc.ReadPJ)
	fmt.Printf("%-28s %10.1f %10.1f\n", "Dynamic write energy (pJ)", l1.WritePJ, llc.WritePJ)
	fmt.Printf("%-28s %10.2f %10.2f\n", "Leakage power (mW)", l1.LeakMW, llc.LeakMW)
}
