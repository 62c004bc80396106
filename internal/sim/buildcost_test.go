package sim_test

import (
	"runtime"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

// TestBuildCostIsWhatTheRunTouches holds machine construction to a law: a
// machine costs what its run touches, so building one must not scale with
// structures no run has touched yet. A four-times larger LLC may add only
// each bank's larger set index (one 4-byte entry per added set), and
// a four-times larger BTB nothing. Both may exceed that by mapSpread: Go
// seeds each map's hash at random, so one build's bytes vary a little (by
// up to 1.3 KB over 200 default builds).
func TestBuildCostIsWhatTheRunTouches(t *testing.T) {
	const cores, mapSpread = 8, 4 << 10
	progs := make([]*isa.Program, cores)
	for i := range progs {
		progs[i] = isa.NewBuilder("halt").Halt().MustBuild()
	}
	build := func(mc config.Machine) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := sim.New(config.Run{Machine: mc, Defense: config.Base, Consistency: config.TSO}, progs)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		return after.TotalAlloc - before.TotalAlloc
	}
	def := config.Default(cores)
	base := build(def)

	bigLLC := config.Default(cores)
	bigLLC.L2.SizeBytes = 8 << 20
	bigBTB := config.Default(cores)
	bigBTB.Bpred.BTBEntries = 16384
	for _, tc := range []struct {
		name      string
		mc        config.Machine
		addedSets int // per core
	}{
		{"8 MiB LLC", bigLLC, bigLLC.L2.Sets() - def.L2.Sets()},
		{"16384-entry BTB", bigBTB, 0},
	} {
		got, limit := build(tc.mc), base+uint64(4*tc.addedSets*cores+mapSpread)
		if got > limit {
			t.Errorf("%s: sim.New allocated %d bytes, %d more than the default machine's %d, where %d more is allowed",
				tc.name, got, got-base, base, limit-base)
		}
	}
}

// TestWarmMachinesAllocateLittle steps a warmed 1-core IS-Fu machine and an
// 8-core PARSEC machine and bounds the heap allocations their cycles make.
// No transaction or branch allocates; what is left is first touches (a
// functional-memory page, a cache set's ways, an MSHR's waiter array
// growing) and a map's rare growth. Measured over 20,000 cycles after a
// 20,000-cycle warm-up, the two made at most 18 and 227 allocations; the
// bounds are about twice that. When memsys events were closures and
// predictor snapshots copied the RAS, the same windows made 6,396 and
// 9,585.
func TestWarmMachinesAllocateLittle(t *testing.T) {
	const warm, window = 20000, 20000
	for _, tc := range []struct {
		name  string
		run   config.Run
		progs []*isa.Program
		limit uint64
	}{
		{"libquantum/IS-Fu", config.Run{Machine: config.Default(1), Defense: config.ISFuture, Consistency: config.TSO},
			[]*isa.Program{workload.MustSPEC("libquantum")}, 40},
		{"canneal/IS-Fu", config.Run{Machine: config.Default(8), Defense: config.ISFuture, Consistency: config.TSO},
			workload.MustPARSEC("canneal", 8), 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := sim.MustNew(tc.run, tc.progs)
			for i := 0; i < warm; i++ {
				m.Step()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < window; i++ {
				m.Step()
			}
			runtime.ReadMemStats(&after)
			if m.Done() {
				t.Fatal("the machine finished inside the window")
			}
			n := after.Mallocs - before.Mallocs
			t.Logf("%d heap allocations in %d cycles", n, window)
			if n > tc.limit {
				t.Errorf("%d cycles of a warm machine made %d heap allocations, want at most %d", window, n, tc.limit)
			}
		})
	}
}
