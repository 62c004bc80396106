// Command traceconv records, inspects, and verifies replayable ispectr2
// traces — the import/export frontend of the workload registry.
//
// Record a workload from the golden interpreter (the default source: the
// architectural reference, independent of any timing model):
//
//	traceconv -record hmmer -name hmmer-replay -n 8000 -o corpus/hmmer-replay.trace
//
// Record from a live simulator run instead (captures real commit cycles,
// and is the only source for multi-core workloads):
//
//	traceconv -record canneal -live -defense IS-Fu -consistency RC -n 5000 -o canneal.trace
//
// Inspect and admission-check existing traces:
//
//	traceconv -info corpus/*.trace
//	traceconv -verify corpus/*.trace
//
// A verified trace imports via -import on benchtable, leakscan,
// conformfuzz, simserver, or invisisim (workload.ImportDir), joining
// every matrix as a first-class workload under its recorded name.
package main

import (
	"flag"
	"fmt"
	"os"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

func main() {
	var (
		record      = flag.String("record", "", "record this registered workload (see invisisim -list) as a trace")
		name        = flag.String("name", "", "trace/workload name to record under (default: the source workload's name; pick a distinct name to import alongside the built-in)")
		n           = flag.Uint64("n", 20000, "instructions to record per core (looping kernels record exactly this many; halting programs may record fewer)")
		out         = flag.String("o", "", "output file (default: <name>.trace)")
		live        = flag.Bool("live", false, "record from a live simulator run instead of the golden interpreter (required for multi-core workloads)")
		defense     = flag.String("defense", "Base", "defense scheme for -live recording")
		consistency = flag.String("consistency", "TSO", "consistency model for -live recording: TSO | RC")
		kernelName  = flag.String("kernel", "fast", "simulation kernel for -live recording: fast | stepped")
		info        = flag.Bool("info", false, "print a summary of each trace file argument and exit")
		verify      = flag.Bool("verify", false, "run the import admission gates on each trace file argument and exit")
	)
	flag.Parse()

	switch {
	case *info:
		for _, path := range flag.Args() {
			t, err := trace.ReadFile(path)
			check(err)
			printInfo(path, t)
		}
	case *verify:
		if flag.NArg() == 0 {
			check(fmt.Errorf("-verify needs trace file arguments"))
		}
		for _, path := range flag.Args() {
			if _, err := workload.LoadTraceFile(path); err != nil {
				check(err)
			}
			fmt.Printf("%s: ok\n", path)
		}
	case *record != "":
		check(doRecord(*record, *name, *out, *n, *live, *defense, *consistency, *kernelName))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doRecord(source, name, out string, n uint64, live bool, defense, consistency, kernelName string) error {
	w, err := workload.Lookup(source)
	if err != nil {
		return err
	}
	if name == "" {
		name = w.Name()
	}
	if out == "" {
		out = name + ".trace"
	}
	cores := w.DefaultCores()
	progs, err := w.Programs(cores)
	if err != nil {
		return err
	}
	var t *trace.Trace
	if live {
		d, err := config.ParseDefense(defense)
		if err != nil {
			return err
		}
		cm, err := config.ParseConsistency(consistency)
		if err != nil {
			return err
		}
		kernel, err := engine.ParseKernel(kernelName)
		if err != nil {
			return err
		}
		run := config.Run{Machine: config.Default(cores), Defense: d, Consistency: cm}
		t, err = harness.Record(run, name, progs, n, harness.WithKernel(kernel))
		if err != nil {
			return err
		}
	} else {
		if cores != 1 {
			return fmt.Errorf("traceconv: %q is %d-core; the golden interpreter records single-core workloads only (use -live)", source, cores)
		}
		t, _ = trace.RecordInterp(name, progs[0], n)
	}
	if err := trace.WriteFile(out, t); err != nil {
		return err
	}
	// Round-trip the admission gates immediately: a recording traceconv
	// cannot re-import is a bug worth failing loudly at record time.
	if _, err := workload.LoadTraceFile(out); err != nil {
		return fmt.Errorf("recorded trace fails its own import gates: %w", err)
	}
	total := 0
	for _, evs := range t.Events {
		total += len(evs)
	}
	fmt.Printf("%s: %d core(s), %d committed instruction(s) -> %s\n", name, len(t.Programs), total, out)
	return nil
}

func printInfo(path string, t *trace.Trace) {
	fmt.Printf("%s: ispectr2 %q, %d core(s)\n", path, t.Name, len(t.Programs))
	for c, p := range t.Programs {
		var memBytes int
		for _, ch := range p.InitMem {
			memBytes += len(ch.Data)
		}
		evs := t.Events[c]
		last := uint64(0)
		if len(evs) > 0 {
			last = evs[len(evs)-1].Cycle
		}
		fmt.Printf("  core %d: program %q, %d inst(s), %d init-mem byte(s); %d event(s), last cycle %d\n",
			c, p.Name, len(p.Insts), memBytes, len(evs), last)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceconv:", err)
		os.Exit(1)
	}
}
