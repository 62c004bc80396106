package core_test

import (
	"fmt"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/core"
	"invisispec/internal/engine"
	"invisispec/internal/isa"
	"invisispec/internal/leakage"
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

// TestWakeAudit checks the premise the fast kernel's credit rests on. After
// a tick at cycle t, a core whose NextWake(t) is W > t+1 is credited, not
// ticked, at every landed cycle before W, until a hierarchy callback reaches
// it. So under the stepped kernel its ticks from t+1 up to W-1, or up to the
// first callback, must leave its state as it was at t, apart from the
// counters SkipIdle replays and the four the hierarchy owns. The audit runs
// each case under the stepped kernel and keeps one window per core: it
// copies the core's state when the window opens and compares once, when the
// window reaches W-1, just before a callback reaches the core, or when the
// run ends. A window where the whole machine is idle lies inside every
// core's own window, so this also covers the whole-machine jumps.
func TestWakeAudit(t *testing.T) {
	for _, ac := range auditCases() {
		t.Run(ac.String(), func(t *testing.T) {
			if err := auditWake(ac); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// auditWindow is one core's promised-idle window.
type auditWindow struct {
	open       bool
	from, wake uint64
	before     core.WakeState
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
	wins := make([]auditWindow, len(m.Cores))
	var err error
	// closeWindow compares core i's state with its window's start; by says
	// what ended the window at cycle at.
	closeWindow := func(i int, at uint64, by string) {
		w := &wins[i]
		if !w.open {
			return
		}
		w.open = false
		after := core.SnapshotWakeState(m.Cores[i])
		if d := w.before.Diff(&after); d != "" && err == nil {
			err = fmt.Errorf("core %d: idle promised at cycle %d until %d, but by %s at cycle %d %s changed",
				i, w.from, w.wake, by, at, d)
		}
	}
	for i, c := range m.Cores {
		core.OnInput(c, func(now uint64) { closeWindow(i, now, "a callback") })
	}
	budget := ac.instrs * 600
	for err == nil && m.Stats.TotalRetired() < ac.instrs && !m.Done() && m.Cycle() < budget {
		now := m.Cycle()
		for i, c := range m.Cores {
			if w := &wins[i]; !w.open {
				if wake := c.NextWake(now); wake > now+1 {
					*w = auditWindow{open: true, from: now, wake: wake, before: core.SnapshotWakeState(c)}
				}
			}
		}
		m.Step()
		for i := range wins {
			if wins[i].open && m.Cycle()+1 >= wins[i].wake {
				closeWindow(i, m.Cycle(), "the tick")
			}
		}
	}
	for i := range wins {
		closeWindow(i, m.Cycle(), "the end of the run")
	}
	return err
}

// creditProbe is a core as an engine component that remembers whether the
// fast kernel ticked or credited it at the latest landing.
type creditProbe struct {
	*core.Core
	through uint64 // the last cycle ticked or credited
	ticked  uint64 // the last cycle ticked
}

func (p *creditProbe) Tick(now uint64) {
	p.Core.Tick(now)
	p.through, p.ticked = now, now
}

func (p *creditProbe) SkipIdle(k uint64) {
	p.Core.SkipIdle(k)
	p.through += k
}

// TestFlushReachesCreditedCore runs the smoke corpus's two-core attacks
// under the fast kernel and checks that some callback reaches a core the
// kernel credited, not ticked, in that cycle: a clflush invalidating the
// line in a lower-numbered core, from inside the flushing core's tick. That
// core must then tick in the next cycle. TestKernelEquivalence (internal/sim)
// holds the same runs to the stepped kernel's fingerprints.
func TestFlushReachesCreditedCore(t *testing.T) {
	const budget = 30_000_000
	hits := 0
	for _, spec := range leakage.SmokeCorpus() {
		if spec.Cores() < 2 {
			continue
		}
		progs, err := spec.Programs()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range config.AllDefenses() {
			m := sim.MustNew(config.Run{Machine: spec.Machine(), Defense: d, Consistency: config.TSO}, progs)
			comps := []engine.Component{m.Hier}
			for _, c := range m.Cores {
				p := &creditProbe{Core: c}
				core.OnInput(c, func(now uint64) {
					if p.through == now && p.ticked != now {
						hits++
					}
				})
				comps = append(comps, p)
			}
			eng := engine.NewStepper(engine.KernelFast, 0, comps...)
			for cycle := uint64(0); !m.Done(); {
				if cycle >= budget {
					t.Fatalf("%s/%s: not done within %d cycles", spec.ID, d, uint64(budget))
				}
				cycle = eng.StepTo(budget)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no callback reached a core the fast kernel had credited in that cycle")
	}
	t.Logf("%d callbacks reached a credited core", hits)
}
