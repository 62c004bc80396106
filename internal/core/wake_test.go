package core_test

import (
	"fmt"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/core"
	"invisispec/internal/engine"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

// auditCase is one machine the wake audit runs.
type auditCase struct {
	workload  string
	prog      *isa.Program // runs on one core instead of the workload
	parsec    bool
	defense   config.Defense
	cm        config.Consistency
	intrEvery int   // non-zero: timer interrupt interval
	protectI  bool  // enable ProtectICache
	faultSeed int64 // non-zero: deterministic fault injection
	instrs    uint64
}

func (ac auditCase) String() string {
	name := ac.workload
	if ac.prog != nil {
		name = ac.prog.Name
	}
	s := fmt.Sprintf("%s/%s/%s", name, ac.defense, ac.cm)
	if ac.intrEvery > 0 {
		s += fmt.Sprintf("/intr%d", ac.intrEvery)
	}
	if ac.protectI {
		s += "/picache"
	}
	if ac.faultSeed != 0 {
		s += fmt.Sprintf("/seed%d", ac.faultSeed)
	}
	return s
}

// mulBurstProgram holds the ROB head on a DRAM miss while eight multiplies,
// made ready together by a cache hit, issue two per cycle into the two
// multiply units. The issues after the first cycle are the only thing the
// core does in their cycles, and each makes the next cycle's issue possible.
func mulBurstProgram() *isa.Program {
	b := isa.NewBuilder("mulburst").
		Li(1, 0x100000).
		Li(2, 0x200000).
		Ld(8, 9, 2, 0). // bring B's line into the L1
		Fence().
		Ld(8, 3, 1, 0). // head: misses to DRAM
		Ld(8, 4, 2, 0)  // hits
	for rd := uint8(5); rd < 13; rd++ {
		b.Mul(rd, 4, 4)
	}
	return b.Halt().MustBuild()
}

// auditCases covers every defense under both memory models on a
// memory-bound, a streaming and a branchy kernel; timer interrupts,
// ProtectICache and fault injection; a burst of multiplies issued over
// consecutive cycles; and 8-core PARSEC kernels, whose cross-core
// invalidations and recalls reach cores through hierarchy callbacks alone.
func auditCases() []auditCase {
	cases := []auditCase{{prog: mulBurstProgram(), defense: config.Base, cm: config.TSO, instrs: 100}}
	cms := []config.Consistency{config.TSO, config.RC}
	for _, wl := range []string{"mcf", "libquantum", "sjeng"} {
		for _, d := range config.AllDefenses() {
			for _, cm := range cms {
				cases = append(cases, auditCase{workload: wl, defense: d, cm: cm, instrs: 3000})
			}
		}
	}
	cases = append(cases,
		auditCase{workload: "sjeng", defense: config.ISFuture, cm: config.TSO, intrEvery: 2500, instrs: 3000},
		auditCase{workload: "mcf", defense: config.Base, cm: config.TSO, intrEvery: 1000, instrs: 3000},
		auditCase{workload: "libquantum", defense: config.ISSpectre, cm: config.TSO, protectI: true, instrs: 3000},
		auditCase{workload: "mcf", defense: config.ISFuture, cm: config.RC, faultSeed: 7, instrs: 3000},
	)
	for _, wl := range []string{"canneal", "fluidanimate", "swaptions"} {
		for _, d := range []config.Defense{config.Base, config.ISFuture} {
			for _, cm := range cms {
				cases = append(cases, auditCase{workload: wl, parsec: true, defense: d, cm: cm, instrs: 1000})
			}
		}
	}
	return cases
}

// TestWakeAudit checks the premise every fast-kernel jump rests on. After a
// tick at cycle t, let W be the earliest of the hierarchy's and every
// core's NextWake(t), capped at the cycle budget. Where W > t+1 the fast
// kernel jumps to W, so the stepped kernel's ticks at t+1 .. W-1 must leave
// every core's state as it was at t, apart from the counters SkipIdle
// replays. The audit runs each case under the stepped kernel, copies every
// core's state wherever the fast kernel would jump, steps to W-1 and
// compares once.
func TestWakeAudit(t *testing.T) {
	for _, ac := range auditCases() {
		t.Run(ac.String(), func(t *testing.T) {
			if err := auditWake(ac); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func auditWake(ac auditCase) error {
	cores := 1
	var progs []*isa.Program
	switch {
	case ac.prog != nil:
		progs = []*isa.Program{ac.prog}
	case ac.parsec:
		cores = 8
		progs = workload.MustPARSEC(ac.workload, cores)
	default:
		progs = []*isa.Program{workload.MustSPEC(ac.workload)}
	}
	mc := config.Default(cores)
	mc.InterruptInterval = ac.intrEvery
	mc.ProtectICache = ac.protectI
	m := sim.MustNew(config.Run{Machine: mc, Defense: ac.defense, Consistency: ac.cm}, progs)
	m.SetKernel(engine.KernelStepped)
	if ac.faultSeed != 0 {
		m.SeedFaults(ac.faultSeed)
	}
	budget := ac.instrs * 600
	before := make([]core.WakeState, len(m.Cores))
	for m.Stats.TotalRetired() < ac.instrs && !m.Done() && m.Cycle() < budget {
		now := m.Cycle()
		wake := min(m.Hier.NextWake(now), budget)
		for _, c := range m.Cores {
			wake = min(wake, c.NextWake(now))
		}
		if wake > now+1 {
			for i, c := range m.Cores {
				before[i] = core.SnapshotWakeState(c)
			}
			for m.Cycle() < wake-1 {
				m.Step()
			}
			for i, c := range m.Cores {
				after := core.SnapshotWakeState(c)
				if d := before[i].Diff(&after); d != "" {
					return fmt.Errorf("core %d: idle promised at cycle %d until %d, but by cycle %d %s changed",
						i, now, wake, m.Cycle(), d)
				}
			}
		}
		m.Step()
	}
	return nil
}
