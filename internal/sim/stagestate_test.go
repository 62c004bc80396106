package sim_test

import (
	"fmt"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/conform"
	"invisispec/internal/invariant"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
)

// TestStageStateUnderConformancePrograms runs generated conformance
// programs (fences, atomics, acquire/release, aliasing stores, calls and
// indirect jumps, faulting loads) under every defense × consistency ×
// kernel configuration with the invariant checkers sweeping every cycle.
// Each sweep includes core.StructuralCheck, which recomputes the counters
// and lists the pipeline stages maintain about the ROB, so any drift from
// the scans they replace fails here at the cycle it appears. The final
// state must also match the golden interpreter. Each program also runs on
// a 72-entry ROB, whose slot masks end in a partial word and whose ring
// wraps in the middle of a word.
func TestStageStateUnderConformancePrograms(t *testing.T) {
	small := config.Default(1)
	small.ROBEntries, small.LQEntries, small.SQEntries = 72, 16, 16
	shapes := []struct {
		name string
		mc   config.Machine
	}{{"", config.Default(1)}, {"/rob72", small}}
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		p := conform.Generate(seed)
		ref, err := conform.RunRef(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range shapes {
			for _, cfg := range conform.Configs() {
				t.Run(fmt.Sprintf("seed%d/%s%s", seed, cfg, shape.name), func(t *testing.T) {
					run := config.Run{Machine: shape.mc, Defense: cfg.Defense, Consistency: cfg.Consistency}
					m := sim.MustNew(run, []*isa.Program{p})
					m.SetKernel(cfg.Kernel)
					m.EnableChecking(invariant.Options{Interval: 1})
					if err := m.RunToCompletion(100_000 + 600*ref.Retired); err != nil {
						t.Fatal(err)
					}
					if got := m.Cores[0].Regs(); got != ref.Regs {
						t.Fatalf("registers %v, golden %v", got, ref.Regs)
					}
				})
			}
		}
	}
}
