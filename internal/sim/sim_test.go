package sim_test

import (
	"fmt"
	"sort"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

func run(t *testing.T, d config.Defense, c config.Consistency, cores int, progs []*isa.Program, budget uint64) *sim.Machine {
	t.Helper()
	r := config.Run{Machine: config.Default(cores), Defense: d, Consistency: c}
	m := sim.MustNew(r, progs)
	if err := m.RunToCompletion(budget); err != nil {
		t.Fatalf("%v/%v: %v", d, c, err)
	}
	return m
}

func median(lat [workload.SpectreProbeLines]uint64) uint64 {
	s := append([]uint64(nil), lat[:]...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

const secret = 84 // the paper's Figure 5 secret value

func TestSpectreLeaksOnBaseline(t *testing.T) {
	m := run(t, config.Base, config.TSO, 1, []*isa.Program{workload.SpectreV1(secret)}, 3_000_000)
	all := workload.SpectreScanLatencies(m.Mem)
	idx, lat := workload.LeakedByte(all[:])
	if idx != secret {
		t.Fatalf("attack on Base recovered %d, want %d", idx, secret)
	}
	med := median(all)
	if lat*2 >= med {
		t.Fatalf("leaked line latency %d not clearly below median %d", lat, med)
	}
}

func TestSpectreBlockedByInvisiSpec(t *testing.T) {
	for _, d := range []config.Defense{config.ISSpectre, config.ISFuture} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			m := run(t, d, config.TSO, 1, []*isa.Program{workload.SpectreV1(secret)}, 6_000_000)
			lat := workload.SpectreScanLatencies(m.Mem)
			med := median(lat)
			// The secret-indexed line must NOT stand out as a cache hit.
			if lat[secret]*2 < med {
				t.Fatalf("%v: secret line latency %d is an outlier below median %d — leak!",
					d, lat[secret], med)
			}
		})
	}
}

func TestSpectreBlockedByFences(t *testing.T) {
	m := run(t, config.FenceSpectre, config.TSO, 1, []*isa.Program{workload.SpectreV1(secret)}, 8_000_000)
	lat := workload.SpectreScanLatencies(m.Mem)
	med := median(lat)
	if lat[secret]*2 < med {
		t.Fatalf("Fe-Sp: secret line latency %d below median %d — leak!", lat[secret], med)
	}
}

func TestMeltdownLeaksOnBaseAndISSpectre(t *testing.T) {
	// Exception-sourced transient leaks are out of the Spectre threat
	// model: Base leaks, and IS-Spectre (by design, §IV) does not stop it.
	for _, d := range []config.Defense{config.Base, config.ISSpectre} {
		m := run(t, d, config.TSO, 1, []*isa.Program{workload.Meltdown(0x5A)}, 3_000_000)
		idx, _ := workload.LeakedByte(workload.ScanLatencies(m.Mem, workload.MeltdownResultsBase, workload.MeltdownProbeLines))
		if idx != 0x5A {
			t.Fatalf("%v: meltdown recovered %#x, want 0x5a", d, idx)
		}
	}
}

func TestMeltdownBlockedByISFuture(t *testing.T) {
	m := run(t, config.ISFuture, config.TSO, 1, []*isa.Program{workload.Meltdown(0x5A)}, 6_000_000)
	var lats []uint64
	var secretLat uint64
	for i := 0; i < 256; i++ {
		l := m.Mem.Read(workload.MeltdownResultsBase+uint64(8*i), 8)
		lats = append(lats, l)
		if i == 0x5A {
			secretLat = l
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	med := lats[len(lats)/2]
	if secretLat*2 < med {
		t.Fatalf("IS-Fu: secret line latency %d below median %d — leak!", secretLat, med)
	}
}

// --- Multiprocessor consistency litmus tests ---

// mpWriter/mpReader implement the message-passing litmus test:
// writer: data = 42; flag = 1.  reader: while flag == 0 {}; r = data.
func mpProgs(useAcquire bool) []*isa.Program {
	const dataAddr, flagAddr = 0x10000, 0x20000
	w := isa.NewBuilder("mp-writer").
		Li(1, dataAddr).
		Li(2, flagAddr).
		Li(3, 42).
		Li(4, 1).
		St(8, 1, 0, 3)
	w.Release() // no-op under TSO; orders the stores under RC
	w.St(8, 2, 0, 4).
		Halt()
	rb := isa.NewBuilder("mp-reader").
		Li(1, dataAddr).
		Li(2, flagAddr).
		Label("spin").
		Ld(8, 5, 2, 0).
		Beq(5, 0, "spin")
	if useAcquire {
		rb.Acquire()
	}
	rb.Ld(8, 6, 1, 0).
		Li(7, 0x30000).
		St(8, 7, 0, 6). // publish observed data
		Halt()
	return []*isa.Program{w.MustBuild(), rb.MustBuild()}
}

func TestMessagePassingTSO(t *testing.T) {
	for _, d := range config.AllDefenses() {
		m := run(t, d, config.TSO, 2, mpProgs(false), 4_000_000)
		if got := m.Mem.Read(0x30000, 8); got != 42 {
			t.Fatalf("%v/TSO: reader observed data=%d after flag, want 42", d, got)
		}
	}
}

func TestMessagePassingRCWithAcquire(t *testing.T) {
	for _, d := range config.AllDefenses() {
		m := run(t, d, config.RC, 2, mpProgs(true), 4_000_000)
		if got := m.Mem.Read(0x30000, 8); got != 42 {
			t.Fatalf("%v/RC+acquire: reader observed data=%d, want 42", d, got)
		}
	}
}

func TestStoreBufferingLitmus(t *testing.T) {
	// SB litmus: both-zero is legal under TSO (store->load reordering);
	// anything architecturally impossible (r1=1 while x never written...)
	// cannot occur. We assert only that results are in range and the run
	// completes under every defense.
	const xAddr, yAddr = 0x11000, 0x12000
	p0 := isa.NewBuilder("sb0").
		Li(1, xAddr).Li(2, yAddr).Li(3, 1).
		St(8, 1, 0, 3).
		Ld(8, 4, 2, 0).
		Li(5, 0x31000).
		St(8, 5, 0, 4).
		Halt().MustBuild()
	p1 := isa.NewBuilder("sb1").
		Li(1, yAddr).Li(2, xAddr).Li(3, 1).
		St(8, 1, 0, 3).
		Ld(8, 4, 2, 0).
		Li(5, 0x32000).
		St(8, 5, 0, 4).
		Halt().MustBuild()
	for _, d := range config.AllDefenses() {
		m := run(t, d, config.TSO, 2, []*isa.Program{p0, p1}, 4_000_000)
		a := m.Mem.Read(0x31000, 8)
		b := m.Mem.Read(0x32000, 8)
		if a > 1 || b > 1 {
			t.Fatalf("%v: impossible SB litmus outcome (%d,%d)", d, a, b)
		}
	}
}

func TestAtomicCountersEightCores(t *testing.T) {
	// Eight cores each atomically increment a shared counter 50 times:
	// the final value must be exactly 400 under every defense and model.
	const counter = 0x40000
	prog := isa.NewBuilder("inc").
		Li(1, counter).
		Li(2, 1).
		Li(3, 50).
		Label("loop").
		RMW(8, 4, 1, 2).
		AddI(3, 3, -1).
		Bne(3, 0, "loop").
		Halt().MustBuild()
	progs := make([]*isa.Program, 8)
	for i := range progs {
		progs[i] = prog
	}
	for _, d := range config.AllDefenses() {
		for _, cm := range []config.Consistency{config.TSO, config.RC} {
			m := run(t, d, cm, 8, progs, 8_000_000)
			if got := m.Mem.Read(counter, 8); got != 400 {
				t.Fatalf("%v/%v: counter = %d, want 400", d, cm, got)
			}
		}
	}
}

func TestSpinlockCriticalSection(t *testing.T) {
	// A ticket lock built from fetch-and-add protects a non-atomic
	// read-modify-write of a shared counter: mutual exclusion must make
	// the total exact. Exercises coherence, fences and InvisiSpec under
	// contention.
	const (
		nextTicket = 0x50000
		nowServing = 0x50040 // separate line to avoid false sharing
		counter    = 0x50080
		iters      = 20
	)
	b := isa.NewBuilder("spinlock")
	b.Li(1, nextTicket).
		Li(2, nowServing).
		Li(3, counter).
		Li(4, 1).
		Li(5, iters).
		Label("loop").
		RMW(8, 6, 1, 4). // my ticket
		Label("spin").
		Ld(8, 7, 2, 0). // now serving
		Bne(7, 6, "spin").
		Acquire().
		Ld(8, 8, 3, 0). // critical section: counter++
		AddI(8, 8, 1).
		St(8, 3, 0, 8).
		Release().
		RMW(8, 9, 2, 4). // now-serving++ releases the lock
		AddI(5, 5, -1).
		Bne(5, 0, "loop").
		Halt()
	prog := b.MustBuild()
	progs := []*isa.Program{prog, prog, prog, prog}
	// The full 5x2 configuration matrix is covered for atomics by
	// TestAtomicCountersEightCores; the (much slower) contended-spinlock
	// runs cover the interesting corners.
	cases := []config.Run{
		{Machine: config.Default(4), Defense: config.Base, Consistency: config.TSO},
		{Machine: config.Default(4), Defense: config.ISSpectre, Consistency: config.TSO},
		{Machine: config.Default(4), Defense: config.ISFuture, Consistency: config.TSO},
		{Machine: config.Default(4), Defense: config.ISFuture, Consistency: config.RC},
	}
	for _, r := range cases {
		m := sim.MustNew(r, progs)
		if err := m.RunToCompletion(30_000_000); err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if got := m.Mem.Read(counter, 8); got != 4*iters {
			t.Fatalf("%v: counter = %d, want %d", r, got, 4*iters)
		}
	}
}

func TestFencesSlowerThanInvisiSpec(t *testing.T) {
	// The paper's headline: fence defenses cost far more than InvisiSpec.
	// A branchy, load-heavy kernel must order Base < IS-Sp and
	// Fe-Fu must be the slowest of all.
	p := branchyKernel()
	cycles := map[config.Defense]uint64{}
	for _, d := range config.AllDefenses() {
		m := run(t, d, config.TSO, 1, []*isa.Program{p}, 30_000_000)
		cycles[d] = m.Cycle()
	}
	if cycles[config.ISSpectre] < cycles[config.Base] {
		t.Errorf("IS-Sp (%d) faster than Base (%d)?", cycles[config.ISSpectre], cycles[config.Base])
	}
	if cycles[config.FenceSpectre] <= cycles[config.ISSpectre] {
		t.Errorf("Fe-Sp (%d) not slower than IS-Sp (%d)", cycles[config.FenceSpectre], cycles[config.ISSpectre])
	}
	if cycles[config.FenceFuture] <= cycles[config.ISFuture] {
		t.Errorf("Fe-Fu (%d) not slower than IS-Fu (%d)", cycles[config.FenceFuture], cycles[config.ISFuture])
	}
	// On a load-dominated kernel (many loads per branch), a fence before
	// every load must cost far more than a fence after every branch — the
	// structural reason Fe-Fu is the paper's most expensive configuration.
	p2 := loadHeavyKernel()
	feSp := run(t, config.FenceSpectre, config.TSO, 1, []*isa.Program{p2}, 60_000_000).Cycle()
	feFu := run(t, config.FenceFuture, config.TSO, 1, []*isa.Program{p2}, 60_000_000).Cycle()
	if feFu <= feSp {
		t.Errorf("load-heavy kernel: Fe-Fu (%d) not slower than Fe-Sp (%d)", feFu, feSp)
	}
}

// loadHeavyKernel: eight independent loads per loop branch.
func loadHeavyKernel() *isa.Program {
	b := isa.NewBuilder("loadheavy")
	b.Li(20, 0x80000).
		Li(1, 0).
		Li(3, 3000)
	b.Label("loop").
		AndI(4, 1, 1023).
		ShlI(4, 4, 3).
		Add(4, 4, 20)
	for i := 0; i < 8; i++ {
		b.Ld(8, uint8(5+i), 4, int64(8*i))
	}
	for i := 0; i < 8; i++ {
		b.Add(2, 2, uint8(5+i))
	}
	b.AddI(1, 1, 13).
		AddI(3, 3, -1).
		Bne(3, 0, "loop").
		Halt()
	return b.MustBuild()
}

// branchyKernel: data-dependent branches over a table plus loads, the shape
// fences hurt most.
func branchyKernel() *isa.Program {
	b := isa.NewBuilder("branchy")
	words := make([]uint64, 512)
	st := uint64(12345)
	for i := range words {
		st = st*6364136223846793005 + 1442695040888963407
		words[i] = st >> 33
	}
	b.DataU64(0x60000, words...)
	b.Li(20, 0x60000).
		Li(1, 0). // index
		Li(2, 0). // accumulator
		Li(3, 2000)
	b.Label("loop").
		AndI(4, 1, 511).
		ShlI(4, 4, 3).
		Add(4, 4, 20).
		Ld(8, 5, 4, 0).
		Ld(8, 9, 4, 8).
		Ld(8, 10, 4, 16).
		Add(5, 5, 9).
		Add(5, 5, 10).
		AndI(6, 5, 1).
		Bne(6, 0, "odd").
		Add(2, 2, 5).
		Jmp("next")
	b.Label("odd").
		Xor(2, 2, 5)
	b.Label("next").
		AddI(1, 1, 7).
		AddI(3, 3, -1).
		Bne(3, 0, "loop").
		Li(7, 0x70000).
		St(8, 7, 0, 2).
		Halt()
	return b.MustBuild()
}

func TestRunInstructionsBudget(t *testing.T) {
	p := branchyKernel()
	r := config.Run{Machine: config.Default(1), Defense: config.Base, Consistency: config.TSO}
	m := sim.MustNew(r, []*isa.Program{p})
	if err := m.RunInstructions(500, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stats.TotalRetired() < 500 {
		t.Fatalf("retired %d < 500", m.Stats.TotalRetired())
	}
	if m.Cores[0].Halted() {
		t.Fatal("halted before the budget was reached")
	}
}

func TestNewValidation(t *testing.T) {
	r := config.Run{Machine: config.Default(2), Defense: config.Base, Consistency: config.TSO}
	if _, err := sim.New(r, []*isa.Program{branchyKernel()}); err == nil {
		t.Fatal("program/core count mismatch not rejected")
	}
	bad := r
	bad.Machine.Cores = 0
	if _, err := sim.New(bad, nil); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

// TestDisjointMulticoreMatchesInterpreter runs independent random programs
// on two cores (disjoint data regions) under every defense and checks each
// core's architectural result against the golden model — the multicore
// pipeline must not perturb single-thread semantics.
func TestDisjointMulticoreMatchesInterpreter(t *testing.T) {
	progs := []*isa.Program{
		disjointKernel(0, 0x100000),
		disjointKernel(1, 0x900000),
	}
	refs := make([][32]uint64, 2)
	for i, p := range progs {
		it := isa.NewInterp(p)
		if err := it.Run(2_000_000); err != nil {
			t.Fatal(err)
		}
		refs[i] = it.Regs
	}
	for _, d := range config.AllDefenses() {
		for _, cm := range []config.Consistency{config.TSO, config.RC} {
			r := config.Run{Machine: config.Default(2), Defense: d, Consistency: cm}
			m := sim.MustNew(r, progs)
			if err := m.RunToCompletion(20_000_000); err != nil {
				t.Fatalf("%v/%v: %v", d, cm, err)
			}
			for core := 0; core < 2; core++ {
				got := m.Cores[core].Regs()
				for reg := 0; reg < 32; reg++ {
					if got[reg] != refs[core][reg] {
						t.Fatalf("%v/%v core %d: r%d = %#x, interp %#x",
							d, cm, core, reg, got[reg], refs[core][reg])
					}
				}
			}
		}
	}
}

// disjointKernel builds a deterministic mixed kernel over a private region.
func disjointKernel(seed int, base uint64) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("disjoint%d", seed))
	words := make([]uint64, 128)
	st := uint64(seed)*2654435761 + 99991
	for i := range words {
		st = st*6364136223846793005 + 1442695040888963407
		words[i] = st >> 30
	}
	b.DataU64(base, words...)
	b.Li(20, base).
		Li(1, 0).
		Li(2, 0).
		Li(3, 400)
	b.Label("loop").
		AndI(4, 1, 127).
		ShlI(4, 4, 3).
		Add(4, 4, 20).
		Ld(8, 5, 4, 0).
		AndI(6, 5, 3).
		Bne(6, 0, "skip").
		Xor(2, 2, 5).
		St(8, 4, 0, 2)
	b.Label("skip").
		Add(2, 2, 5).
		AddI(1, 1, 11).
		AddI(3, 3, -1).
		Bne(3, 0, "loop").
		Halt()
	return b.MustBuild()
}

// PRIME+PROBE in the CrossCore setting (§III-C): an attacker core monitors
// LLC occupancy. Base leaks the victim's transient access; InvisiSpec does
// not — covering the LLC-level (not just L1-level) invisibility claim.
func TestPrimeProbeCrossCore(t *testing.T) {
	runPP := func(d config.Defense) int {
		r := config.Run{Machine: config.Default(2), Defense: d, Consistency: config.TSO}
		m := sim.MustNew(r, []*isa.Program{
			workload.PrimeProbeVictim(),
			workload.PrimeProbeAttacker(),
		})
		if err := m.RunToCompletion(10_000_000); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		return workload.PPSlowProbes(m.Mem)
	}
	base := runPP(config.Base)
	if base < 2 {
		t.Errorf("Base: attacker failed to observe the transient LLC fill (%d slow probes)", base)
	}
	for _, d := range []config.Defense{config.ISSpectre, config.ISFuture} {
		n := runPP(d)
		if n >= 2 {
			t.Errorf("%v: transient access visible to the cross-core attacker (%d slow probes)", d, n)
		}
		if n >= base {
			t.Errorf("%v: no contrast with Base (%d vs %d slow probes)", d, n, base)
		}
	}
}
