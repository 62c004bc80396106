// Command tracediff records the committed-instruction stream of one
// registered workload under two processor configurations and verifies
// they are architecturally identical — the defenses must change timing,
// never semantics. It can also persist replayable ispectr2 traces for
// offline regression pinning, and diff a live run against a saved trace.
//
//	tracediff -workload sjeng -a Base -b IS-Fu -n 20000
//	tracediff -workload canneal -a Base -record canneal.trace
//	tracediff -workload hmmer -a Base -record base.trace
//	tracediff -workload hmmer -a IS-Fu -file base.trace
//
// Any registry workload works — built-in SPEC/PARSEC kernels, attack
// gadgets, or traces imported with -import (see traceconv). Multi-core
// workloads diff core by core; note that a racy multi-core program's
// architectural stream depends on the interleaving, so a cross-config
// divergence on one is a property of the program, not a simulator bug —
// the single-core kernels are the semantics gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"invisispec/internal/config"
	"invisispec/internal/harness"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

func main() {
	var (
		name   = flag.String("workload", "sjeng", "registered workload name (see invisisim -list)")
		cfgA   = flag.String("a", "Base", "first defense configuration")
		cfgB   = flag.String("b", "IS-Fu", "second defense configuration (ignored with -record or -file)")
		cmName = flag.String("consistency", "TSO", "consistency model: TSO | RC")
		n      = flag.Uint64("n", 20000, "instructions to record per core")
		record = flag.String("record", "", "write configuration A's replayable trace to this file and exit")
		file   = flag.String("file", "", "diff configuration A against this saved trace instead of a second live run")
		impDir = flag.String("import", "", "import *.trace files from this directory as workloads first")
	)
	flag.Parse()

	if *impDir != "" {
		_, err := workload.ImportDir(*impDir)
		check(err)
	}
	w, err := workload.Lookup(*name)
	check(err)
	cm, err := config.ParseConsistency(*cmName)
	check(err)

	a, err := recordTrace(w, *cfgA, cm, *n)
	check(err)

	switch {
	case *record != "":
		check(trace.WriteFile(*record, a))
		fmt.Printf("recorded %d commits of %s under %s to %s\n", total(a), w.Name(), *cfgA, *record)
	case *file != "":
		b, err := trace.ReadFile(*file)
		check(err)
		diff(a, b, *cfgA, *file)
	default:
		b, err := recordTrace(w, *cfgB, cm, *n)
		check(err)
		diff(a, b, *cfgA, *cfgB)
	}
}

// diff compares the two traces' architectural streams core by core over
// their common prefix and exits non-zero on the first divergence.
func diff(a, b *trace.Trace, nameA, nameB string) {
	if len(a.Events) != len(b.Events) {
		check(fmt.Errorf("core-count mismatch: %s has %d, %s has %d",
			nameA, len(a.Events), nameB, len(b.Events)))
	}
	compared := 0
	for c := range a.Events {
		ea, eb := a.Events[c], b.Events[c]
		m := len(ea)
		if len(eb) < m {
			m = len(eb)
		}
		if i, why := trace.Diff(ea[:m], eb[:m]); i != -1 {
			fmt.Printf("DIVERGENCE core %d commit %d: %s\n", c, i, why)
			os.Exit(1)
		}
		compared += m
	}
	fmt.Printf("%s: %s and %s commit identical architectural streams (%d instructions compared)\n",
		a.Name, nameA, nameB, compared)
}

// recordTrace runs the workload live under the named defense and captures
// its replayable trace via the shared harness recorder.
func recordTrace(w workload.Workload, cfg string, cm config.Consistency, n uint64) (*trace.Trace, error) {
	d, err := config.ParseDefense(cfg)
	if err != nil {
		return nil, err
	}
	cores := w.DefaultCores()
	progs, err := w.Programs(cores)
	if err != nil {
		return nil, err
	}
	run := config.Run{Machine: config.Default(cores), Defense: d, Consistency: cm}
	return harness.Record(run, w.Name(), progs, n)
}

func total(t *trace.Trace) int {
	n := 0
	for _, evs := range t.Events {
		n += len(evs)
	}
	return n
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracediff:", err)
		os.Exit(1)
	}
}
