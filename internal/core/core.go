// Package core implements the simulated out-of-order processor core and the
// InvisiSpec load machinery that is the paper's central contribution.
//
// The core is an 8-issue dynamically scheduled pipeline (Table IV): fetch
// proceeds along the branch-predicted path — so wrong-path (transient)
// instructions genuinely execute, which is what makes speculative-execution
// attacks expressible — through a 192-entry reorder buffer with ROB-based
// renaming, a 32-entry load queue with a one-to-one Speculative Buffer, a
// 32-entry store queue, and a write buffer that drains under TSO or RC
// rules. Every squash source of the paper's Table I is modelled: branch
// mispredictions, store→load address aliasing, memory-consistency
// violations (invalidation- and eviction-triggered), InvisiSpec validation
// failures, exceptions at retirement, and timer interrupts.
//
// The InvisiSpec flows (paper §V–§VI) live in invisispec.go; the
// conventional pipeline is spread across fetch.go, rob.go, lsq.go,
// retire.go and squash.go.
package core

import (
	"fmt"

	"invisispec/internal/bpred"
	"invisispec/internal/config"
	"invisispec/internal/defense"
	"invisispec/internal/isa"
	"invisispec/internal/memsys"
	"invisispec/internal/stats"
	"invisispec/internal/tlb"
)

// IBase is the byte address where instruction memory begins. Instructions
// occupy 4 bytes each, starting at IBase, so instruction lines never collide
// with data lines.
const IBase uint64 = 1 << 40

// InstBytes is the footprint of one instruction for I-cache purposes.
const InstBytes = 4

// Core is one simulated hardware thread.
type Core struct {
	id   int
	cfg  config.Machine
	run  config.Run
	sch  defense.Defense // resolved countermeasure scheme (run.Defense)
	prog *isa.Program
	mem  *isa.Memory
	hier *memsys.Hierarchy
	bp   *bpred.Predictor
	dtlb *tlb.TLB
	st   *stats.Core

	// bbLeader marks basic-block leaders per instruction index (the
	// program's bb metadata, or the static fallback), consumed by
	// dispatch-stalling defense schemes.
	bbLeader []bool

	now uint64

	// Front end. fetchBuf is a window into fetchMem (see pushFetched).
	pc            int
	fetchBuf      []fetchedInst
	fetchMem      []fetchedInst
	fetchInFlight bool
	fetchToken    uint64
	fetchResumeAt uint64
	fetchStalled  bool // indirect-branch BTB miss: wait for resolution
	haltSeen      bool // a halt was dispatched: nothing younger may enter

	// Back end.
	rob     []robEntry
	robHead int
	robCnt  int
	rat     [isa.NumRegs]int // architectural reg -> producing ROB slot, or -1
	regs    [isa.NumRegs]uint64

	// State the stages keep about the ROB so that per-cycle work follows
	// the instructions in flight rather than the ROB's capacity: age-ordered
	// lists of physical slots (dispatched but not issued; executing in a
	// functional unit; open fence-like entries and incomplete atomics), and
	// the number of open fence-like entries. StructuralCheck recomputes each.
	waiting    []int
	executing  []int
	barriers   []int
	openFences int

	lq     []lqEntry
	lqHead int
	lqCnt  int
	sq     []sqEntry
	sqHead int
	sqCnt  int
	wb     []wbEntry

	// Squash-epoch counter (§VI-C) and memory-request token source.
	epoch     uint64
	nextToken uint64

	// Commit tracing (see trace.go).
	tracer    Tracer
	commitSeq uint64

	// ProtectICache (footnote 2): direct-mapped filter of recently exposed
	// instruction lines, to avoid re-issuing installs every retirement.
	iExposeFilter [64]uint64

	// Most recent squash, carried in watchdog/deadlock dumps (introspect.go).
	lastSquash SquashInfo

	// Mutation self-test hook: retirement disabled (introspect.go).
	retireStalled bool

	// Quiescence (wake.go): the last cycle a stage or a hierarchy callback
	// changed the core's state, and whether the last retire counted a
	// validation-stall cycle.
	lastActive      uint64
	valStallCounted bool

	halted bool
}

type fetchedInst struct {
	pc         int
	inst       isa.Inst
	predTaken  bool
	predTarget int
	// btbMiss marks the indirect jump fetch stalled on (BTB miss): fetch
	// stops right after it, so it is always the youngest fetched
	// instruction, and its resolution resumes fetch without a squash.
	btbMiss bool
	hasSnap bool
	snap    bpred.State
	ghr     uint64
	// synthetic marks a defense fence injected at decode (Table V).
	synthetic bool
	// blockStart marks a basic-block leader per the program's bb
	// metadata, consulted by the defense StallDispatch hook.
	blockStart bool
}

// New builds a core. mem is the machine-wide functional memory, hier the
// shared hierarchy, st the core's stats slot. The run's defense must be a
// registered scheme (sim.New validates this; New panics on unregistered
// names).
func New(id int, run config.Run, prog *isa.Program, mem *isa.Memory,
	hier *memsys.Hierarchy, st *stats.Core) *Core {
	cfg := run.Machine
	c := &Core{
		id:       id,
		cfg:      cfg,
		run:      run,
		sch:      run.Defense.MustScheme(),
		prog:     prog,
		mem:      mem,
		hier:     hier,
		bp:       bpred.New(cfg.Bpred),
		dtlb:     tlb.New(cfg.TLBEntries, cfg.PageWalkLatency),
		st:       st,
		bbLeader: prog.BlockLeaders(),
		pc:       prog.Entry,
		fetchMem: make([]fetchedInst, fetchBufLimit(cfg.FetchWidth)),
		rob:      make([]robEntry, cfg.ROBEntries),
		lq:       make([]lqEntry, cfg.LQEntries),
		sq:       make([]sqEntry, cfg.SQEntries),
	}
	c.fetchBuf = c.fetchMem[:0]
	c.waiting = make([]int, 0, cfg.ROBEntries)
	c.executing = make([]int, 0, cfg.ROBEntries)
	c.barriers = make([]int, 0, cfg.ROBEntries)
	for i := range c.rat {
		c.rat[i] = -1
	}
	hier.Connect(id, (*client)(c))
	return c
}

// Halted reports whether the thread has architecturally halted.
func (c *Core) Halted() bool { return c.halted }

// Regs returns the architectural register file (for result checking).
func (c *Core) Regs() [isa.NumRegs]uint64 { return c.regs }

// PendingWork reports whether the core still has in-flight state that must
// drain before the machine can be considered quiescent.
func (c *Core) PendingWork() bool {
	return !c.halted || len(c.wb) > 0
}

// Tick advances the core one cycle. The hierarchy must have been ticked to
// the same cycle first (responses for this cycle are then already applied).
func (c *Core) Tick(now uint64) {
	c.now = now
	if c.halted {
		// Keep draining the write buffer after a halt so the memory image
		// settles (stores survive the halting thread).
		c.drainWriteBuffer()
		return
	}
	c.st.Cycles++
	c.updateFenceCompletion()
	c.retire()
	if c.halted {
		return
	}
	c.drainWriteBuffer()
	c.completeExec()
	c.memStep()
	c.issue()
	c.dispatch()
	c.fetch()
}

func (c *Core) token() uint64 {
	c.nextToken++
	return c.nextToken
}

// submit sends req to the hierarchy. The attempt is activity whether or not
// the hierarchy accepts it: a refused request is retried next cycle.
func (c *Core) submit(req memsys.Request) bool {
	c.markActive()
	return c.hier.Submit(req)
}

// client adapts Core to memsys.Client without exporting the methods on Core
// itself.
type client Core

// Deliver routes a memory response into the pipeline.
func (cl *client) Deliver(now uint64, r memsys.Response) {
	c := (*Core)(cl)
	c.now = now
	c.markActive()
	switch r.Type {
	case memsys.IFetch, memsys.IFetchSpec:
		c.ifetchDone(r)
	case memsys.ReadShared:
		c.loadDataArrived(r, false)
	case memsys.SpecRead:
		c.loadDataArrived(r, true)
	case memsys.Validate:
		c.validationArrived(r)
	case memsys.Expose:
		c.exposureArrived(r)
	case memsys.ReadExcl:
		c.exclusiveArrived(r)
	}
}

// OnInvalidate implements the consistency and InvisiSpec early-squash
// reactions to a coherence invalidation (§V-C2).
func (cl *client) OnInvalidate(now uint64, lineNum uint64) {
	c := (*Core)(cl)
	c.now = now
	c.markActive()
	c.onLineGone(lineNum, true)
}

// OnL1Evict models the conventional conservative squash on L1 replacement of
// a line read by a performed, non-retired load.
func (cl *client) OnL1Evict(now uint64, lineNum uint64) {
	c := (*Core)(cl)
	c.now = now
	c.markActive()
	c.onLineGone(lineNum, false)
}

func (c *Core) String() string {
	return fmt.Sprintf("core%d pc=%d rob=%d lq=%d sq=%d wb=%d halted=%v",
		c.id, c.pc, c.robCnt, c.lqCnt, c.sqCnt, len(c.wb), c.halted)
}
