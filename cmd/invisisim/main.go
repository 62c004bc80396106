// Command invisisim runs one workload on one simulated processor
// configuration and prints an execution report: cycles, IPC, squash
// breakdown, InvisiSpec validation/exposure statistics, traffic by class.
//
// Examples:
//
//	invisisim -workload sjeng -defense IS-Fu -consistency TSO
//	invisisim -workload canneal -cores 8 -defense Base
//	invisisim -workload mcf -defense IS-Sp -check -faultseed 7
//	invisisim -print-config
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/invariant"
	"invisispec/internal/stats"
	"invisispec/internal/workload"
)

func main() {
	var (
		name        = flag.String("workload", "sjeng", "SPEC or PARSEC kernel name (see -list)")
		defense     = flag.String("defense", "Base", "defense scheme name (see -listdefenses)")
		consistency = flag.String("consistency", "TSO", "TSO | RC")
		warmup      = flag.Uint64("warmup", 20000, "warmup instructions (excluded from stats)")
		measure     = flag.Uint64("measure", 100000, "measured instructions")
		list        = flag.Bool("list", false, "list workloads and exit")
		listDef     = flag.Bool("listdefenses", false, "list registered defense schemes (one name per line) and exit")
		printConfig = flag.Bool("print-config", false, "print the Table IV machine parameters and exit")
		traceN      = flag.Int("trace", 0, "print the first N committed instructions of core 0")
		jsonOut     = flag.Bool("json", false, "emit the measured counters as JSON instead of text")
		doCheck     = flag.Bool("check", false, "run the hardening layer's invariant checkers and forward-progress watchdog during the run")
		checkEvery  = flag.Uint64("checkevery", 4096, "cycles between invariant sweeps (with -check)")
		faultSeed   = flag.Int64("faultseed", 0, "non-zero: inject deterministic NoC/DRAM timing faults with this seed")
		timeout     = flag.Duration("timeout", 0, "non-zero: abort the run after this much host wall-clock time (cooperative, via the simulation loop)")
		kernelName  = flag.String("kernel", "fast", "simulation kernel: fast (quiescence-aware fast-forward) | stepped (cycle-by-cycle reference); both produce identical results")
		importDir   = flag.String("import", "", "import *.trace files from this directory as workloads before resolving -workload")
	)
	check(workload.ImportFromEnv())
	flag.Parse()

	if *importDir != "" {
		_, err := workload.ImportDir(*importDir)
		check(err)
	}
	if *list {
		fmt.Println("SPEC-like kernels (1 core):")
		for _, n := range workload.SuiteNames(false) {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("PARSEC-like kernels (8 cores):")
		for _, n := range workload.SuiteNames(true) {
			fmt.Printf("  %s\n", n)
		}
		var rest []workload.Workload
		for _, w := range workload.All() {
			if w.Class() != workload.ClassBench {
				rest = append(rest, w)
			}
		}
		if len(rest) > 0 {
			fmt.Println("other workloads:")
			for _, w := range rest {
				fmt.Printf("  %s (%s, %d core(s))\n", w.Name(), w.Class(), w.DefaultCores())
			}
		}
		return
	}
	if *listDef {
		// Bare names on stdout: CI generates its defense-matrix strategy
		// from this output, so it must stay machine-readable.
		for _, d := range config.AllDefenses() {
			fmt.Println(d)
		}
		return
	}
	if *printConfig {
		printMachine(config.Default(1))
		return
	}

	d, err := parseDefense(*defense)
	check(err)
	cm, err := parseConsistency(*consistency)
	check(err)
	kernel, err := engine.ParseKernel(*kernelName)
	check(err)

	w, err := workload.Lookup(*name)
	check(err)

	opts := []harness.Option{harness.WithKernel(kernel)}
	if *doCheck {
		opts = append(opts, harness.WithChecking(invariant.Options{Interval: *checkEvery}))
	}
	if *faultSeed != 0 {
		opts = append(opts, harness.WithFaultSeed(*faultSeed))
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts = append(opts, harness.WithContext(ctx))
	}
	if *traceN > 0 {
		check(printTrace(w, d, cm, uint64(*traceN), opts))
		return
	}
	r, err := harness.MeasureWorkload(*name, d, cm, *warmup, *measure, opts...)
	check(err)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(struct {
			Workload     string
			Defense      string
			Consistency  string
			Cycles       uint64
			Instructions uint64
			CPI          float64
			Traffic      [stats.NumTrafficClasses]uint64
			Core         stats.Core
			DRAMReads    uint64
			LLCSBRate    float64
		}{
			Workload: r.Workload, Defense: d.String(), Consistency: cm.String(),
			Cycles: r.Cycles, Instructions: r.Instructions, CPI: r.CPI(),
			Traffic: r.Traffic, Core: r.Core, DRAMReads: r.DRAMReads,
			LLCSBRate: r.LLCSBRate,
		}))
		return
	}
	report(r)
}

// printTrace records the workload through the harness and prints core 0's
// first n committed instructions — a quick way to see the architectural
// execution. A run that fails still prints what it committed first.
func printTrace(w workload.Workload, d config.Defense, cm config.Consistency, n uint64, opts []harness.Option) error {
	cores := w.DefaultCores()
	progs, err := w.Programs(cores)
	if err != nil {
		return err
	}
	run := config.Run{Machine: config.Default(cores), Defense: d, Consistency: cm}
	t, err := harness.Record(run, w.Name(), progs, n, opts...)
	if t == nil {
		return err
	}
	for seq, ev := range t.Events[0] {
		reg := ""
		if ev.WroteReg {
			reg = fmt.Sprintf("   r%d <- %#x", ev.Reg, ev.RegValue)
		}
		if ev.Fault {
			reg = "   FAULT"
		}
		fmt.Printf("cyc %8d  #%-6d pc %4d  %-28s%s\n", ev.Cycle, seq, ev.PC, progs[0].At(ev.PC).String(), reg)
	}
	return err
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "invisisim:", err)
		os.Exit(1)
	}
}

func parseDefense(s string) (config.Defense, error) {
	return config.ParseDefense(s)
}

func parseConsistency(s string) (config.Consistency, error) {
	switch s {
	case "TSO":
		return config.TSO, nil
	case "RC":
		return config.RC, nil
	}
	return 0, fmt.Errorf("unknown consistency model %q", s)
}

func report(r harness.Result) {
	c := r.Core
	fmt.Printf("workload      %s on %s\n", r.Workload, r.Run)
	fmt.Printf("instructions  %d (measured window)\n", r.Instructions)
	fmt.Printf("cycles        %d   CPI %.3f\n", r.Cycles, r.CPI())
	fmt.Printf("branches      %d retired, %.2f%% mispredicted\n",
		c.CondBranches, 100*c.MispredictRate())
	fmt.Printf("loads/stores  %d / %d   L1D miss rate %.2f%%   TLB misses %d (%d walks delayed)\n",
		c.LoadsRetired, c.StoresRetired,
		100*float64(c.L1DMisses)/float64(maxu(c.L1DHits+c.L1DMisses, 1)),
		c.TLBMisses, c.TLBWalksDelayed)
	fmt.Printf("squashes      %.0f per 1M instructions:\n", c.SquashesPerMInst())
	for rn := stats.SquashReason(0); rn < stats.NumSquashReasons; rn++ {
		if c.Squashes[rn] > 0 {
			fmt.Printf("  %-22s %d\n", rn.String(), c.Squashes[rn])
		}
	}
	if r.Run.Defense.UsesInvisiSpec() {
		total := c.Exposures + c.Validations()
		fmt.Printf("invisispec    %d USLs issued, %d SB reuses\n", c.USLsIssued, c.SBReuseHits)
		fmt.Printf("  exposures %d (%.1f%%)  validations %d L1-hit / %d L1-miss  failures %d\n",
			c.Exposures, 100*float64(c.Exposures)/float64(maxu(total, 1)),
			c.ValidationsL1Hit, c.ValidationsL1Miss, c.ValidationFailures)
		fmt.Printf("  validation stall %d cycles   LLC-SB hit rate %.1f%%   interrupts delayed %d\n",
			c.ValidationStall, 100*r.LLCSBRate, c.InterruptsDelayed)
	}
	fmt.Printf("traffic       %d bytes total (%.1f B/instr)\n",
		r.TotalTraffic(), float64(r.TotalTraffic())/float64(r.Instructions))
	for tc := stats.TrafficClass(0); tc < stats.NumTrafficClasses; tc++ {
		if r.Traffic[tc] > 0 {
			fmt.Printf("  %-16s %12d bytes\n", tc.String(), r.Traffic[tc])
		}
	}
	fmt.Printf("dram reads    %d\n", r.DRAMReads)
}

func printMachine(m config.Machine) {
	fmt.Printf("Simulated architecture (paper Table IV)\n")
	fmt.Printf("  cores             %d at %.1f GHz\n", m.Cores, m.ClockGHz)
	fmt.Printf("  core              %d-issue OoO, %d-entry ROB, %d LQ, %d SQ, %d WB\n",
		m.IssueWidth, m.ROBEntries, m.LQEntries, m.SQEntries, m.WBEntries)
	fmt.Printf("  branch predictor  tournament, %d BTB entries, %d RAS entries\n",
		m.Bpred.BTBEntries, m.Bpred.RASEntries)
	fmt.Printf("  L1I               %dKB %d-way, %d-cycle RT\n", m.L1I.SizeBytes>>10, m.L1I.Ways, m.L1I.LatencyRT)
	fmt.Printf("  L1D               %dKB %d-way, %d-cycle RT, %d ports\n", m.L1D.SizeBytes>>10, m.L1D.Ways, m.L1D.LatencyRT, m.L1D.Ports)
	fmt.Printf("  L2 (shared)       %dMB/bank %d-way, %d-cycle local RT\n", m.L2.SizeBytes>>20, m.L2.Ways, m.L2LocalRT)
	fmt.Printf("  network           %dx%d mesh, %d-bit links, %d cycle/hop\n", m.MeshW, m.MeshH, m.LinkBytes*8, m.HopLatency)
	fmt.Printf("  coherence         directory-based MESI (+ Spec-GetS)\n")
	fmt.Printf("  DRAM              %d-cycle RT after L2\n", m.DRAMLatency)
	fmt.Printf("  D-TLB             %d entries, %d-cycle walk\n", m.TLBEntries, m.PageWalkLatency)
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
