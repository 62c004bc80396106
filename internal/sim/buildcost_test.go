package sim_test

import (
	"runtime"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
)

// TestBuildCostIsWhatTheRunTouches holds machine construction to a law: a
// machine costs what its run touches, so building one must not scale with
// structures no run has touched yet. A four-times larger LLC may add only
// each bank's larger set index (one 24-byte slice header per added set), and
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
		{"8 MiB LLC", bigLLC, bigLLC.L2.Sets(bigLLC.LineSize) - def.L2.Sets(def.LineSize)},
		{"16384-entry BTB", bigBTB, 0},
	} {
		got, limit := build(tc.mc), base+uint64(24*tc.addedSets*cores+mapSpread)
		if got > limit {
			t.Errorf("%s: sim.New allocated %d bytes, %d more than the default machine's %d, where %d more is allowed",
				tc.name, got, got-base, base, limit-base)
		}
	}
}
