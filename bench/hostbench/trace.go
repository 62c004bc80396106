package main

import (
	"fmt"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/core"
	"invisispec/internal/engine"
	"invisispec/internal/isa"
	"invisispec/internal/memsys"
	"invisispec/internal/stats"
)

// budgetPerInstruction mirrors the harness's cycle budget per requested
// instruction, so a traced cell gives up exactly where harness.Measure does.
const budgetPerInstruction = 600

// layerTimes accumulates host time and calls per engine component while a
// traced machine runs. memTick includes the Deliver and OnInvalidate
// callbacks the hierarchy makes into the cores.
type layerTimes struct {
	coreTick, coreWake, coreSkip, memTick, memWake, step      time.Duration
	coreTicks, coreWakes, coreBusy, memTicks, memWakes, steps uint64
}

func (a layerTimes) sub(b layerTimes) layerTimes {
	return layerTimes{
		coreTick: a.coreTick - b.coreTick, coreWake: a.coreWake - b.coreWake, coreSkip: a.coreSkip - b.coreSkip,
		memTick: a.memTick - b.memTick, memWake: a.memWake - b.memWake, step: a.step - b.step,
		coreTicks: a.coreTicks - b.coreTicks, coreWakes: a.coreWakes - b.coreWakes, coreBusy: a.coreBusy - b.coreBusy,
		memTicks: a.memTicks - b.memTicks, memWakes: a.memWakes - b.memWakes, steps: a.steps - b.steps,
	}
}

func (a *layerTimes) add(b layerTimes) {
	a.coreTick += b.coreTick
	a.coreWake += b.coreWake
	a.coreSkip += b.coreSkip
	a.memTick += b.memTick
	a.memWake += b.memWake
	a.step += b.step
	a.coreTicks += b.coreTicks
	a.coreWakes += b.coreWakes
	a.coreBusy += b.coreBusy
	a.memTicks += b.memTicks
	a.memWakes += b.memWakes
	a.steps += b.steps
}

// components is the host time spent inside component calls.
func (a layerTimes) components() time.Duration {
	return a.coreTick + a.coreWake + a.coreSkip + a.memTick + a.memWake
}

// attrs summarizes a window's per-call timings for its span.
func (a layerTimes) attrs() map[string]float64 {
	return map[string]float64{
		"core.tick_ns": float64(a.coreTick), "core.ticks": float64(a.coreTicks),
		"core.nextwake_ns": float64(a.coreWake), "core.skipidle_ns": float64(a.coreSkip),
		"memsys.tick_ns": float64(a.memTick), "memsys.nextwake_ns": float64(a.memWake),
		"engine.step_ns": float64(a.step), "engine.steps": float64(a.steps),
	}
}

// timedHier times the hierarchy's engine calls.
type timedHier struct {
	h  *memsys.Hierarchy
	lt *layerTimes
}

func (t *timedHier) Tick(now uint64) {
	start := time.Now()
	t.h.Tick(now)
	t.lt.memTick += time.Since(start)
	t.lt.memTicks++
}

func (t *timedHier) NextWake(now uint64) uint64 {
	start := time.Now()
	w := t.h.NextWake(now)
	t.lt.memWake += time.Since(start)
	t.lt.memWakes++
	return w
}

// timedCore times a core's engine calls, including SkipIdle, so the fast
// scheduler still registers it as an engine.IdleSkipper.
type timedCore struct {
	c  *core.Core
	lt *layerTimes
}

func (t *timedCore) Tick(now uint64) {
	start := time.Now()
	t.c.Tick(now)
	t.lt.coreTick += time.Since(start)
	t.lt.coreTicks++
}

func (t *timedCore) NextWake(now uint64) uint64 {
	start := time.Now()
	w := t.c.NextWake(now)
	t.lt.coreWake += time.Since(start)
	t.lt.coreWakes++
	if w <= now+1 {
		t.lt.coreBusy++
	}
	return w
}

func (t *timedCore) SkipIdle(k uint64) {
	start := time.Now()
	t.c.SkipIdle(k)
	t.lt.coreSkip += time.Since(start)
}

// tracedMachine is a machine assembled from the public constructors in
// sim.New's order, with every engine component wrapped in a timer and the
// fast kernel driving it the way sim.Machine does without a checker.
type tracedMachine struct {
	run   config.Run
	st    *stats.Machine
	mem   *isa.Memory
	hier  *memsys.Hierarchy
	cores []*core.Core
	eng   engine.Stepper
	cycle uint64
	lt    layerTimes
	// windowNS is the host time spent in the run windows.
	windowNS time.Duration
}

// setupTimes is the host time one traced cell spent building its machine.
type setupTimes struct {
	programs, image, memsysNew, coreNew time.Duration
}

func (a *setupTimes) add(b setupTimes) {
	a.programs += b.programs
	a.image += b.image
	a.memsysNew += b.memsysNew
	a.coreNew += b.coreNew
}

// buildTraced builds a cell's machine under a setup span whose children
// time each constructor. describe resolves the machine configuration and
// builds the programs.
func buildTraced(rec *spanRecorder, parent int, describe func() (config.Run, []*isa.Program, error)) (*tracedMachine, setupTimes, error) {
	var t setupTimes
	setup := rec.start("setup", parent)
	defer rec.end(setup)
	id := rec.start("programs", setup)
	run, progs, err := describe()
	t.programs += rec.end(id)
	if err != nil {
		return nil, t, err
	}
	if len(progs) != run.Machine.Cores {
		return nil, t, fmt.Errorf("%d programs for %d cores", len(progs), run.Machine.Cores)
	}
	m := &tracedMachine{run: run, st: stats.NewMachine(run.Machine.Cores)}
	id = rec.start("image", setup)
	m.mem = isa.NewMemory()
	t.image += rec.end(id)
	id = rec.start("memsys.new", setup)
	m.hier = memsys.New(run.Machine, m.st)
	t.memsysNew += rec.end(id)
	for i, p := range progs {
		id = rec.start("image", setup)
		m.mem.LoadProgramImage(p)
		t.image += rec.end(id)
		id = rec.start("core.new", setup)
		m.cores = append(m.cores, core.New(i, run, p, m.mem, m.hier, &m.st.Cores[i]))
		t.coreNew += rec.end(id)
	}
	comps := []engine.Component{&timedHier{h: m.hier, lt: &m.lt}}
	for _, c := range m.cores {
		comps = append(comps, &timedCore{c: c, lt: &m.lt})
	}
	m.eng = engine.NewStepper(engine.KernelFast, 0, comps...)
	return m, t, nil
}

func (m *tracedMachine) done() bool {
	for _, c := range m.cores {
		if c.PendingWork() {
			return false
		}
	}
	return true
}

// step advances like sim.Machine's advance with no checker attached.
func (m *tracedMachine) step(limit uint64) {
	if limit <= m.cycle {
		limit = m.cycle + 1
	}
	start := time.Now()
	m.cycle = m.eng.StepTo(limit)
	m.lt.step += time.Since(start)
	m.lt.steps++
	m.st.Cycles = m.cycle
}

// runInstructions mirrors sim.Machine.RunInstructions.
func (m *tracedMachine) runInstructions(n, budget uint64) error {
	for m.st.TotalRetired() < n && !m.done() {
		if m.cycle >= budget {
			return fmt.Errorf("cycle budget %d exhausted at cycle %d", budget, m.cycle)
		}
		m.step(budget)
	}
	return nil
}

// runToCompletion mirrors sim.Machine.RunToCompletion.
func (m *tracedMachine) runToCompletion(maxCycles uint64) error {
	for !m.done() {
		if m.cycle >= maxCycles {
			return fmt.Errorf("cycle budget %d exhausted at cycle %d", maxCycles, m.cycle)
		}
		m.step(maxCycles)
	}
	return nil
}

// window runs fn under a span named after the window and attaches the
// window's per-call timings to it.
func (m *tracedMachine) window(rec *spanRecorder, parent int, name string, fn func() error) (err error) {
	before := m.lt
	id := rec.start(name, parent)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s window: panic at cycle %d: %v", name, m.cycle, p)
		}
		m.windowNS += rec.end(id)
		rec.setAttrs(id, m.lt.sub(before).attrs())
	}()
	return fn()
}

// layerPass accumulates one traced pass over a workload's cells.
type layerPass struct {
	setup    setupTimes
	imageMiB float64
	lt       layerTimes
	windowNS time.Duration

	cycles, jumps, skipped, events, nocMsgs uint64

	// tracedNS and untracedNS time the same cells with and without tracing.
	tracedNS, untracedNS int64
}

// addCell folds a finished traced cell into the pass.
func (lp *layerPass) addCell(m *tracedMachine, st setupTimes) {
	lp.setup.add(st)
	if mb := float64(m.mem.Footprint()*isa.PageSize) / mib; mb > lp.imageMiB {
		lp.imageMiB = mb
	}
	lp.lt.add(m.lt)
	lp.windowNS += m.windowNS
	lp.cycles += m.cycle
	if s, ok := m.eng.(*engine.Scheduler); ok {
		j, k := s.SkipStats()
		lp.jumps += j
		lp.skipped += k
	}
	_, run, _ := m.hier.EventAccounting()
	lp.events += run
	injected, _, _ := m.hier.NoCAccounting()
	lp.nocMsgs += injected
}

// layerValue is one per-layer metric of a traced pass.
type layerValue struct {
	name  string
	value float64
	unit  string
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// values lists the per-layer metrics one traced pass measures.
func (lp *layerPass) values() []layerValue {
	lt := lp.lt
	return []layerValue{
		{"workload.programs_s", lp.setup.programs.Seconds(), "s"},
		{"isa.load_image_s", lp.setup.image.Seconds(), "s"},
		{"isa.image_mb", lp.imageMiB, "MiB"},
		{"memsys.new_s", lp.setup.memsysNew.Seconds(), "s"},
		{"core.new_s", lp.setup.coreNew.Seconds(), "s"},
		{"core.tick_s", lt.coreTick.Seconds(), "s"},
		{"core.ticks", float64(lt.coreTicks), "count"},
		{"core.tick_ns", ratio(float64(lt.coreTick), float64(lt.coreTicks)), "ns"},
		{"core.nextwake_s", lt.coreWake.Seconds(), "s"},
		{"core.nextwake_calls", float64(lt.coreWakes), "count"},
		{"core.nextwake_busy_ratio", ratio(float64(lt.coreBusy), float64(lt.coreWakes)), "ratio"},
		{"core.skipidle_s", lt.coreSkip.Seconds(), "s"},
		{"memsys.tick_s", lt.memTick.Seconds(), "s"},
		{"memsys.ticks", float64(lt.memTicks), "count"},
		{"memsys.nextwake_s", lt.memWake.Seconds(), "s"},
		{"memsys.events", float64(lp.events), "count"},
		{"memsys.ns_per_event", ratio(float64(lt.memTick), float64(lp.events)), "ns"},
		{"memsys.noc_msgs", float64(lp.nocMsgs), "count"},
		{"engine.steps", float64(lt.steps), "count"},
		{"engine.cycles", float64(lp.cycles), "count"},
		{"engine.jumps", float64(lp.jumps), "count"},
		{"engine.skipped_cycles", float64(lp.skipped), "count"},
		{"engine.skip_ratio", ratio(float64(lp.skipped), float64(lp.cycles)), "ratio"},
		{"engine.self_s", (lt.step - lt.components()).Seconds(), "s"},
		{"trace.overhead_ratio", ratio(float64(lp.tracedNS), float64(lp.untracedNS)) - 1, "ratio"},
		{"trace.coverage_ratio", ratio(float64(lt.step), float64(lp.windowNS)), "ratio"},
	}
}

// setLayers reports each per-layer metric as its median over the traced
// passes. Counts describe simulated work, so every pass must repeat them.
func (r *run) setLayers(passes []*layerPass) {
	byName := map[string][]float64{}
	var order []layerValue
	for i, lp := range passes {
		for _, v := range lp.values() {
			if i == 0 {
				order = append(order, v)
			}
			byName[v.name] = append(byName[v.name], v.value)
		}
	}
	for _, v := range order {
		vals := byName[v.name]
		if v.unit == "count" {
			for _, x := range vals[1:] {
				r.checks.check(x == vals[0], "%s: %v in one traced pass, %v in the first", v.name, x, vals[0])
			}
		}
		r.set(v.name, median(vals), v.unit)
	}
}

// tracedPasses runs traced passes until the budget is spent, at least one.
func (r *run) tracedPasses(pass func() *layerPass) ([]*layerPass, error) {
	var passes []*layerPass
	err := r.measureLoop(func() error {
		passes = append(passes, pass())
		return nil
	})
	return passes, err
}
