package sim_test

// Golden-equivalence oracle for the simulation kernels: the quiescence-aware
// fast-forward scheduler must be observationally identical to the seed's
// cycle-by-cycle reference stepper. Identity is checked at the strictest
// available granularity — a byte-for-byte fingerprint of the full stats
// block (global cycles, per-core retired/squash/InvisiSpec/TLB/L1D counters,
// traffic by class, LLC/DRAM counters) plus final cycle, architectural
// registers, fault-injector counters, and the run's error text — across the
// workload x defense x consistency smoke matrix, under fault seeds, with
// invariant checking enabled, with timer interrupts, on budget exhaustion,
// on the cross-core attacks run to completion, and with each InvisiSpec
// mechanism switched off.

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/invariant"
	"invisispec/internal/isa"
	"invisispec/internal/leakage"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

type kernelCase struct {
	workload string
	parsec   bool
	attack   *leakage.AttackSpec // non-nil: run the attack to completion instead
	defense  config.Defense
	cm       config.Consistency

	faultSeed  int64  // non-zero: deterministic fault injection
	checkEvery uint64 // non-zero: invariant checking at this stride
	intrEvery  int    // non-zero: timer interrupt interval
	protectI   bool   // enable ProtectICache
	instrs     uint64 // instruction budget (default 4000)
	budget     uint64 // cycle budget (default instrs*600)

	// machine, when non-nil, changes the machine configuration before the
	// run; variant names the change in the case name.
	machine func(*config.Machine)
	variant string
}

func (kc kernelCase) String() string {
	name := kc.workload
	if kc.attack != nil {
		name = kc.attack.ID
	}
	s := fmt.Sprintf("%s/%s/%s", name, kc.defense, kc.cm)
	if kc.faultSeed != 0 {
		s += fmt.Sprintf("/seed%d", kc.faultSeed)
	}
	if kc.checkEvery > 0 {
		s += fmt.Sprintf("/check%d", kc.checkEvery)
	}
	if kc.intrEvery > 0 {
		s += fmt.Sprintf("/intr%d", kc.intrEvery)
	}
	if kc.protectI {
		s += "/picache"
	}
	if kc.variant != "" {
		s += "/" + kc.variant
	}
	return s
}

// runKernelCase executes the case under kernel k and returns the observable
// fingerprint (and the machine, for skip-count assertions).
func runKernelCase(t *testing.T, kc kernelCase, k engine.Kernel) (string, *sim.Machine) {
	t.Helper()
	var progs []*isa.Program
	var mc config.Machine
	switch {
	case kc.attack != nil:
		var err error
		if progs, err = kc.attack.Programs(); err != nil {
			t.Fatal(err)
		}
		mc = kc.attack.Machine()
	case kc.parsec:
		progs = workload.MustPARSEC(kc.workload, 8)
		mc = config.Default(8)
	default:
		progs = []*isa.Program{workload.MustSPEC(kc.workload)}
		mc = config.Default(1)
	}
	if kc.intrEvery > 0 {
		mc.InterruptInterval = kc.intrEvery
	}
	if kc.protectI {
		mc.ProtectICache = true
	}
	if kc.machine != nil {
		kc.machine(&mc)
	}
	run := config.Run{Machine: mc, Defense: kc.defense, Consistency: kc.cm}
	m := sim.MustNew(run, progs)
	m.SetKernel(k)
	if m.Kernel() != k {
		t.Fatalf("SetKernel(%v) not reflected by Kernel()", k)
	}
	if kc.faultSeed != 0 {
		m.SeedFaults(kc.faultSeed)
	}
	if kc.checkEvery > 0 {
		m.EnableChecking(invariant.Options{Interval: kc.checkEvery})
	}
	instrs := kc.instrs
	if instrs == 0 {
		instrs = 4000
	}
	budget := kc.budget
	if budget == 0 {
		budget = instrs * 600
	}
	var err error
	probes := ""
	if kc.attack != nil {
		err = m.RunToCompletion(budget)
		probes = fmt.Sprintf("probes=%v\n", workload.ScanLatencies(m.Mem, kc.attack.ResultsBase(), kc.attack.ResultLines()))
	} else {
		err = m.RunInstructions(instrs, budget)
	}
	errText := "<nil>"
	if err != nil {
		errText = err.Error()
	}
	regs := ""
	for i, c := range m.Cores {
		regs += fmt.Sprintf("core%d=%v halted=%v\n", i, c.Regs(), c.Halted())
	}
	fp := fmt.Sprintf("cycle=%d err=%q faults=%+v\n%s%sstats=%s",
		m.Cycle(), errText, m.FaultStats(), regs, probes, m.Stats.Fingerprint())
	return fp, m
}

// kernelMatrix is the equivalence table: the smoke matrix plus hardening
// layers (fault seeds, checking, interrupts, ProtectICache) and every 8-core
// PARSEC kernel.
func kernelMatrix() []kernelCase {
	var cases []kernelCase
	// Smoke matrix: memory-bound (mcf: pointer chase, libquantum: stream)
	// and compute/branchy (sjeng) kernels under every defense and both
	// consistency models.
	for _, wl := range []string{"mcf", "libquantum", "sjeng"} {
		for _, d := range config.AllDefenses() {
			for _, cm := range []config.Consistency{config.TSO, config.RC} {
				cases = append(cases, kernelCase{workload: wl, defense: d, cm: cm})
			}
		}
	}
	// Fault seeds stretch NoC/DRAM timing; the injector's rng is consumed in
	// simulation order, so equivalence also proves event order is identical.
	for _, seed := range []int64{1, 7, 13} {
		cases = append(cases,
			kernelCase{workload: "mcf", defense: config.ISSpectre, cm: config.TSO, faultSeed: seed})
	}
	// Invariant checking: sweeps must land on identical cycles (the fast
	// kernel caps jumps at the sweep stride), with and without faults.
	cases = append(cases,
		kernelCase{workload: "libquantum", defense: config.ISFuture, cm: config.TSO, checkEvery: 256},
		kernelCase{workload: "sjeng", defense: config.Base, cm: config.TSO, checkEvery: 512},
		kernelCase{workload: "mcf", defense: config.ISFuture, cm: config.RC, checkEvery: 256, faultSeed: 7},
	)
	// Timer interrupts fire on fixed cycle boundaries the fast kernel must
	// never hop over (including the §VI-D deferred-interrupt accounting).
	cases = append(cases,
		kernelCase{workload: "sjeng", defense: config.ISFuture, cm: config.TSO, intrEvery: 2500},
		kernelCase{workload: "mcf", defense: config.Base, cm: config.TSO, intrEvery: 1000},
	)
	// ProtectICache changes the fetch path (invisible ifetches + exposure
	// installs at retirement).
	cases = append(cases,
		kernelCase{workload: "libquantum", defense: config.ISSpectre, cm: config.TSO, protectI: true})
	// Multicore: cross-core invalidations, recalls, and shared-LLC traffic.
	// They reach a core only through hierarchy callbacks, which is how an
	// idle core learns it has work again.
	for _, wl := range workload.SuiteNames(true) {
		for _, d := range []config.Defense{config.Base, config.ISFuture} {
			for _, cm := range []config.Consistency{config.TSO, config.RC} {
				cases = append(cases, kernelCase{workload: wl, parsec: true, defense: d, cm: cm, instrs: 2000})
			}
		}
	}
	// Budget exhaustion: both kernels must report the identical BudgetError
	// (same cycle, same per-core progress snapshot).
	cases = append(cases,
		kernelCase{workload: "mcf", defense: config.ISFuture, cm: config.TSO, instrs: 4000, budget: 3000})
	// The smoke corpus's two-core attacks, run to completion. A clflush
	// reaches the other core from inside the flushing core's tick, which
	// is the one input a core can receive after its turn in a cycle.
	for _, spec := range leakage.SmokeCorpus() {
		if spec.Cores() < 2 {
			continue
		}
		for _, d := range config.AllDefenses() {
			for _, cm := range []config.Consistency{config.TSO, config.RC} {
				cases = append(cases, kernelCase{attack: &spec, defense: d, cm: cm, budget: 30_000_000})
			}
		}
	}
	// Each InvisiSpec mechanism switched off, one at a time, under the
	// three invisible-load defenses: these take load-queue paths the
	// paper's design never reaches.
	for _, off := range mechanismsOff {
		for _, wl := range []string{"libquantum", "mcf", "sjeng"} {
			for _, d := range []config.Defense{config.ISSpectre, config.ISFuture, config.SpecBox} {
				for _, cm := range []config.Consistency{config.TSO, config.RC} {
					cases = append(cases, kernelCase{workload: wl, defense: d, cm: cm,
						machine: off.apply, variant: off.name})
				}
			}
		}
	}
	return cases
}

// mechanismsOff lists the InvisiSpec mechanism toggles, each as the change
// that switches it off.
var mechanismsOff = []struct {
	name  string
	apply func(*config.Machine)
}{
	{"noSBReuse", func(m *config.Machine) { m.SBReuse = false }},
	{"noDelayTLBMiss", func(m *config.Machine) { m.DelayTLBMiss = false }},
	{"noOverlapValExp", func(m *config.Machine) { m.OverlapValExp = false }},
	{"noEarlySquash", func(m *config.Machine) { m.EarlySquash = false }},
	{"noVToETransform", func(m *config.Machine) { m.VToETransform = false }},
	{"noLLCSB", func(m *config.Machine) { m.LLCSBEnabled = false }},
}

// variantDigestsFile holds the sha256 of each machine-variant case's
// fingerprint, one "<case> <hex digest>" line each. The stepped-vs-fast
// comparison cannot see a change that moves both kernels alike, so these
// cases are also held to the digests recorded here. A change that moves a
// simulated statistic on purpose regenerates the file from the lines the
// test logs under -v ("digest <case> <hex>").
const variantDigestsFile = "testdata/variant_digests.txt"

func readVariantDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(variantDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", variantDigestsFile, sc.Text())
		}
		digests[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return digests
}

func TestKernelEquivalence(t *testing.T) {
	digests := readVariantDigests(t)
	for _, kc := range kernelMatrix() {
		kc := kc
		t.Run(kc.String(), func(t *testing.T) {
			stepped, _ := runKernelCase(t, kc, engine.KernelStepped)
			fast, _ := runKernelCase(t, kc, engine.KernelFast)
			if stepped != fast {
				t.Errorf("kernel fingerprints diverge\n--- stepped ---\n%s\n--- fast ---\n%s", stepped, fast)
			}
			if kc.variant == "" {
				return
			}
			digest := fmt.Sprintf("%x", sha256.Sum256([]byte(stepped)))
			t.Logf("digest %s %s", kc, digest)
			if want, ok := digests[kc.String()]; !ok || digest != want {
				t.Errorf("fingerprint digest %s, %s has %q\n%s", digest, variantDigestsFile, want, stepped)
			}
		})
	}
}

// The oracle is only meaningful if the fast kernel actually jumps: a
// memory-bound pointer chase spends most of its time with every component
// quiescent, so a substantial fraction of simulated cycles must be skipped.
func TestFastKernelActuallySkips(t *testing.T) {
	kc := kernelCase{workload: "mcf", defense: config.Base, cm: config.TSO}
	_, m := runKernelCase(t, kc, engine.KernelFast)
	jumps, skipped := m.FastForwardStats()
	if jumps == 0 || skipped == 0 {
		t.Fatalf("fast kernel never jumped on a memory-bound workload (jumps=%d skipped=%d)", jumps, skipped)
	}
	if frac := float64(skipped) / float64(m.Cycle()); frac < 0.2 {
		t.Errorf("fast kernel skipped only %.1f%% of cycles on mcf; fast-forward is not engaging", 100*frac)
	}
	t.Logf("mcf/Base: %d cycles, %d jumps skipping %d cycles (%.1f%%)",
		m.Cycle(), jumps, skipped, 100*float64(skipped)/float64(m.Cycle()))
}

// The reference stepper must never jump, by construction.
func TestReferenceKernelNeverSkips(t *testing.T) {
	kc := kernelCase{workload: "mcf", defense: config.Base, cm: config.TSO, instrs: 500}
	_, m := runKernelCase(t, kc, engine.KernelStepped)
	if jumps, skipped := m.FastForwardStats(); jumps != 0 || skipped != 0 {
		t.Fatalf("reference stepper reported jumps (%d/%d)", jumps, skipped)
	}
}

// Switching kernels mid-run keeps the cycle position and stays equivalent:
// warm up under the stepped kernel, finish under the fast one, and compare
// with an all-stepped run.
func TestKernelSwitchMidRun(t *testing.T) {
	build := func() *sim.Machine {
		run := config.Run{Machine: config.Default(1), Defense: config.ISSpectre, Consistency: config.TSO}
		return sim.MustNew(run, []*isa.Program{workload.MustSPEC("libquantum")})
	}
	ref := build()
	ref.SetKernel(engine.KernelStepped)
	if err := ref.RunInstructions(4000, 4000*600); err != nil {
		t.Fatal(err)
	}
	mix := build()
	mix.SetKernel(engine.KernelStepped)
	if err := mix.RunInstructions(1000, 4000*600); err != nil {
		t.Fatal(err)
	}
	mix.SetKernel(engine.KernelFast)
	if err := mix.RunInstructions(4000, 4000*600); err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Fingerprint() != mix.Stats.Fingerprint() {
		t.Errorf("mid-run kernel switch diverged\n--- stepped ---\n%s\n--- mixed ---\n%s",
			ref.Stats.Fingerprint(), mix.Stats.Fingerprint())
	}
}
