package core

import (
	"invisispec/internal/bpred"
	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/stats"
)

// stage tracks a ROB entry's progress.
type stage uint8

const (
	stDispatched stage = iota // waiting for operands / issue slot
	stExecuting               // in a functional unit (or address generation)
	stWaitMem                 // address generated; waiting on the memory system
	stCompleted               // result available (loads: performed)
)

const noDep = -1

// robEntry is one in-flight dynamic instruction. The fields issue reads for
// every waiting entry each cycle come first, so they share a cache line or
// two, and the flags are packed together.
type robEntry struct {
	seq  uint64
	inst isa.Inst

	// Operand capture: srcNRob is the producing ROB slot or noDep when the
	// value is already in srcNVal.
	src1Rob int
	src2Rob int

	st        stage
	valid     bool
	synthetic bool // defense fence injected at decode (Table V)

	// Fence-like ops.
	fenceDone bool

	// Control flow.
	predTaken    bool
	btbMiss      bool // the indirect jump fetch is stalled on
	hasSnap      bool
	resolved     bool
	actualTaken  bool
	mispredicted bool

	// RMW progress.
	rmwIssued bool

	execDoneAt uint64

	src1Val uint64
	src2Val uint64
	destVal uint64
	// consumers counts the src1Rob/src2Rob references younger entries
	// still hold to this slot; popHead materializes them at retirement.
	consumers int

	pc           int
	predTarget   int
	actualTarget int
	snap         bpred.State

	// Memory.
	lqIdx int // physical LQ slot or -1
	sqIdx int // physical SQ slot or -1
}

func needsSrc1(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpLui, isa.OpJmp, isa.OpCall, isa.OpFence,
		isa.OpAcquire, isa.OpRelease, isa.OpHalt:
		return false
	}
	return true
}

func needsSrc2(op isa.Op) bool {
	switch op {
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl,
		isa.OpShr, isa.OpMul, isa.OpDiv, isa.OpDivS, isa.OpRemU, isa.OpSlt,
		isa.OpStore, isa.OpRMW,
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		return true
	}
	return false
}

// ringAdd returns (i+n) mod size for 0 <= i < size and 0 <= n <= size. A %
// by a size that is not a constant compiles to a division; every ROB, LQ
// and SQ index goes through this compare-and-subtract instead.
func ringAdd(i, n, size int) int {
	i += n
	if i >= size {
		i -= size
	}
	return i
}

// robAt returns the entry at logical position i (0 = oldest).
func (c *Core) robAt(i int) *robEntry {
	return &c.rob[ringAdd(c.robHead, i, len(c.rob))]
}

// robPhys returns the physical index of logical position i.
func (c *Core) robPhys(i int) int { return ringAdd(c.robHead, i, len(c.rob)) }

// robLogical returns the logical position of a physical slot.
func (c *Core) robLogical(phys int) int {
	l := phys - c.robHead
	if l < 0 {
		l += len(c.rob)
	}
	return l
}

// dropSlot removes phys from an age-ordered slot list.
func dropSlot(list []int, phys int) []int {
	for i, p := range list {
		if p == phys {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// truncSlots drops the entries at logical position L and younger from an
// age-ordered slot list (they are a suffix of it).
func (c *Core) truncSlots(list []int, L int) []int {
	n := len(list)
	for n > 0 && c.robLogical(list[n-1]) >= L {
		n--
	}
	return list[:n]
}

// dispatch renames and inserts instructions from the fetch buffer into the
// ROB (and LQ/SQ), applying the defense scheme's front-end policy:
// dispatch stalls (BasicBlocker-style block boundaries) and synthetic
// fence injection (Table V).
func (c *Core) dispatch() {
	width := c.cfg.FetchWidth
	for n := 0; n < width && len(c.fetchBuf) > 0; n++ {
		if c.haltSeen {
			return
		}
		fi := &c.fetchBuf[0]
		op := fi.inst.Op
		// The scheme may refuse to dispatch past a basic-block boundary
		// while older control flow is unresolved. The stall is transient:
		// branches resolve unconditionally once their operands arrive, so
		// the front end always unblocks.
		if c.sch.StallDispatch(c.view(), fi.blockStart) {
			return
		}
		// Defense fences occupy an extra ROB slot (Table V).
		fenceBefore := c.sch.FenceBeforeLoads() && op == isa.OpLoad
		fenceAfter := c.sch.FenceAfterBranches() && isBranchNeedingFence(op)
		slots := 1
		if fenceBefore || fenceAfter {
			slots = 2
		}
		if c.robCnt+slots > len(c.rob) {
			return
		}
		needsLQ := op == isa.OpLoad || op == isa.OpPrefetch
		needsSQ := op == isa.OpStore
		if needsLQ && c.lqCnt >= len(c.lq) {
			return
		}
		if needsSQ && c.sqCnt >= len(c.sq) {
			return
		}
		if fenceBefore {
			c.insertEntry(&fetchedInst{pc: fi.pc, inst: isa.Inst{Op: isa.OpFence}, synthetic: true})
			n++
		}
		c.fetchBuf = c.fetchBuf[1:]
		c.insertEntry(fi)
		if op == isa.OpHalt {
			// Halts serialize the front end: nothing beyond a halt is
			// dispatched (it would execute speculatively past the end of
			// the program, polluting the caches).
			c.haltSeen = true
			c.fetchBuf = c.fetchMem[:0]
			return
		}
		if fenceAfter {
			c.insertEntry(&fetchedInst{pc: fi.pc, inst: isa.Inst{Op: isa.OpFence}, synthetic: true})
			n++
		}
	}
}

func isBranchNeedingFence(op isa.Op) bool {
	return op.IsCondBranch() || op == isa.OpJmpI || op == isa.OpRet
}

// insertEntry allocates and renames one ROB entry. Callers have verified
// space. A synthetic fetchedInst (defense fence) consumes no fetch-buffer
// slot.
func (c *Core) insertEntry(fi *fetchedInst) {
	c.markActive()
	phys := c.robPhys(c.robCnt)
	c.robCnt++
	e := &c.rob[phys]
	c.nextToken++
	*e = robEntry{
		valid:      true,
		seq:        c.nextToken,
		pc:         fi.pc,
		inst:       fi.inst,
		synthetic:  fi.synthetic,
		st:         stDispatched,
		src1Rob:    noDep,
		src2Rob:    noDep,
		predTaken:  fi.predTaken,
		predTarget: fi.predTarget,
		btbMiss:    fi.btbMiss,
		hasSnap:    fi.hasSnap,
		snap:       fi.snap,
		lqIdx:      -1,
		sqIdx:      -1,
	}
	op := fi.inst.Op
	if needsSrc1(op) {
		if p := c.rat[fi.inst.Rs1]; p >= 0 {
			e.src1Rob = p
			c.rob[p].consumers++
		} else {
			e.src1Val = c.regs[fi.inst.Rs1]
		}
	}
	if needsSrc2(op) {
		if p := c.rat[fi.inst.Rs2]; p >= 0 {
			e.src2Rob = p
			c.rob[p].consumers++
		} else {
			e.src2Val = c.regs[fi.inst.Rs2]
		}
	}
	if op.HasDest() {
		c.rat[fi.inst.Rd] = phys
	}
	switch {
	case op == isa.OpLoad || op == isa.OpPrefetch:
		e.lqIdx = c.allocLQ(e.seq, phys, fi.inst)
	case op == isa.OpStore:
		e.sqIdx = c.allocSQ(e.seq, phys, fi.inst)
	case op == isa.OpNop || op == isa.OpHalt:
		e.st = stCompleted
	case op == isa.OpAcquire || op == isa.OpRelease:
		if c.run.Consistency == config.TSO {
			// TSO already provides acquire/release ordering.
			e.st = stCompleted
			e.fenceDone = true
		}
	}
	if e.st == stDispatched {
		c.waiting = append(c.waiting, phys)
	}
	if isFenceLike(e) && !e.fenceDone {
		c.openFences++
		c.barriers = append(c.barriers, phys)
	} else if op == isa.OpRMW {
		c.barriers = append(c.barriers, phys)
	}
}

// srcReady pulls a source operand if its producer has completed, and reports
// whether the operand is available.
func (c *Core) srcReady(rob *int, val *uint64) bool {
	if *rob == noDep {
		return true
	}
	p := &c.rob[*rob]
	if p.st != stCompleted {
		return false
	}
	c.markActive()
	*val = p.destVal
	*rob = noDep
	p.consumers--
	return true
}

func (c *Core) operandsReady(e *robEntry) bool {
	r1 := c.srcReady(&e.src1Rob, &e.src1Val)
	r2 := c.srcReady(&e.src2Rob, &e.src2Val)
	return r1 && r2
}

// issue selects up to IssueWidth ready instructions, oldest first, honouring
// functional-unit counts and fence blocking. It walks the dispatched
// entries only; issueGate applies the ordering rules.
func (c *Core) issue() {
	slots := c.cfg.IssueWidth
	fu := fuBudget{alus: c.cfg.IntALUs, muldivs: c.cfg.MulDivUnits, agus: c.cfg.L1D.Ports}
	g := c.issueGate()
	list := c.waiting
	kept, r := 0, 0
	for ; r < len(list) && slots > 0; r++ {
		phys := list[r]
		e := &c.rob[phys]
		if g.closed(e) {
			break
		}
		if g.holds(e) {
			list[kept] = phys
			kept++
			continue
		}
		if c.operandsReady(e) && c.startExec(phys, e, &fu) {
			c.markActive()
			slots--
		} else {
			list[kept] = phys
			kept++
		}
		g.consider(e)
	}
	kept += copy(list[kept:], list[r:])
	c.waiting = list[:kept]
}

// fuBudget is the functional units issue has left this cycle.
type fuBudget struct{ alus, muldivs, agus int }

// startExec issues e if a functional unit of the kind it needs is free, and
// reports whether it did. Fences occupy no unit.
func (c *Core) startExec(phys int, e *robEntry, fu *fuBudget) bool {
	op := e.inst.Op
	var lat uint64
	switch {
	case op == isa.OpCycle:
		if fu.alus == 0 {
			return false
		}
		fu.alus--
		lat = 1
	case op == isa.OpMul:
		if fu.muldivs == 0 {
			return false
		}
		fu.muldivs--
		lat = uint64(c.cfg.LatMul)
	case op == isa.OpDiv || op == isa.OpDivS || op == isa.OpRemU:
		if fu.muldivs == 0 {
			return false
		}
		fu.muldivs--
		lat = uint64(c.cfg.LatDiv)
	case op.IsALU():
		if fu.alus == 0 {
			return false
		}
		fu.alus--
		lat = uint64(c.cfg.LatALU)
	case op.IsBranch():
		if fu.alus == 0 {
			return false
		}
		fu.alus--
		lat = 1
	case op.IsMem():
		// Address generation.
		if fu.agus == 0 {
			return false
		}
		fu.agus--
		lat = 1
	case op == isa.OpFence || op == isa.OpAcquire || op == isa.OpRelease:
		// Fences occupy no FU; completion is tracked separately.
		e.st = stWaitMem
		return true
	default:
		e.st = stCompleted
		return true
	}
	e.st = stExecuting
	e.execDoneAt = c.now + lat
	c.insertExecuting(phys)
	return true
}

// insertExecuting adds a slot to the age-ordered executing list.
func (c *Core) insertExecuting(phys int) {
	seq := c.rob[phys].seq
	l := append(c.executing, phys)
	i := len(l) - 1
	for ; i > 0 && c.rob[l[i-1]].seq > seq; i-- {
		l[i] = l[i-1]
	}
	l[i] = phys
	c.executing = l
}

// Barrier kinds, by what they hold back at issue.
const (
	barrierNone = iota
	barrierMem  // younger memory operations and fences wait
	barrierAll  // every younger instruction waits
)

// barrierOf classifies e as an ordering point for issue. An incomplete
// synthetic (defense) fence holds back everything younger; an incomplete
// full fence or acquire holds back younger memory operations and fences.
// So does an incomplete atomic: it has fence semantics, and younger loads
// have no forwarding path from it, so letting them read around it would
// break program order.
func barrierOf(e *robEntry) int {
	op := e.inst.Op
	switch {
	case isFenceLike(e) && !e.fenceDone:
		if e.synthetic {
			return barrierAll
		}
		if op == isa.OpFence || op == isa.OpAcquire {
			return barrierMem
		}
	case op == isa.OpRMW && e.st != stCompleted:
		return barrierMem
	}
	return barrierNone
}

// issueGate applies issue's ordering rules to a walk of the waiting list,
// oldest first: all and mem are the sequence numbers of the oldest barriers
// of each kind seen so far (^0 when none).
type issueGate struct{ all, mem uint64 }

// issueGate starts a walk from the oldest open barriers that have already
// issued. A dispatched barrier joins only once the walk considers it, so
// one that is itself held back holds back nothing younger.
func (c *Core) issueGate() issueGate {
	g := issueGate{all: ^uint64(0), mem: ^uint64(0)}
	for _, phys := range c.barriers {
		if e := &c.rob[phys]; e.st != stDispatched {
			g.consider(e)
			if g.all == e.seq {
				break // nothing younger issues
			}
		}
	}
	return g
}

// closed reports whether e, and so every younger entry, is held back.
func (g *issueGate) closed(e *robEntry) bool { return e.seq > g.all }

// holds reports whether e waits for an older memory barrier.
func (g *issueGate) holds(e *robEntry) bool {
	op := e.inst.Op
	return e.seq > g.mem && (op.IsMem() || op == isa.OpFence)
}

// consider adds e to the barriers that hold back younger entries.
func (g *issueGate) consider(e *robEntry) {
	switch barrierOf(e) {
	case barrierAll:
		g.all = e.seq
	case barrierMem:
		g.mem = min(g.mem, e.seq)
	}
}

func isFenceLike(e *robEntry) bool {
	switch e.inst.Op {
	case isa.OpFence, isa.OpAcquire, isa.OpRelease:
		return true
	}
	return false
}

// completeExec moves instructions whose functional-unit latency has elapsed
// into the completed state, oldest first, resolving branches and store
// addresses.
func (c *Core) completeExec() {
	for r := 0; r < len(c.executing); {
		phys := c.executing[r]
		e := &c.rob[phys]
		if e.execDoneAt > c.now {
			r++
			continue
		}
		c.markActive()
		c.executing = append(c.executing[:r], c.executing[r+1:]...)
		op := e.inst.Op
		switch {
		case op == isa.OpCycle:
			e.destVal = c.now
			e.st = stCompleted
		case op.IsALU():
			e.destVal = isa.EvalALU(op, e.src1Val, e.src2Val, e.inst.Imm)
			e.st = stCompleted
		case op.IsBranch():
			if c.resolveBranch(c.robLogical(phys), e) {
				return // squash invalidated the scan
			}
		case op == isa.OpLoad || op == isa.OpPrefetch:
			lq := &c.lq[e.lqIdx]
			// Natural alignment mirrors the golden interpreter: the LSQ
			// forwarding masks and the speculative buffer track data within
			// one 64-byte line, which aligned accesses never straddle.
			lq.addr = isa.AlignAddr(e.src1Val+uint64(e.inst.Imm), lq.size)
			lq.addrReady = true
			e.st = stWaitMem
		case op == isa.OpStore:
			sq := &c.sq[e.sqIdx]
			sq.addr = isa.AlignAddr(e.src1Val+uint64(e.inst.Imm), sq.size)
			sq.addrReady = true
			sq.data = e.src2Val
			sq.dataReady = true
			e.st = stCompleted
			if c.storeAliasSquash(sq) {
				return
			}
		case op == isa.OpRMW, op == isa.OpFlush:
			e.st = stWaitMem // waits for ROB head; memStep issues it
		default:
			e.st = stCompleted
		}
	}
}

// resolveBranch compares outcome with prediction, squashing on a
// misprediction. It reports whether a squash happened.
func (c *Core) resolveBranch(logical int, e *robEntry) bool {
	op := e.inst.Op
	e.resolved = true
	var next int
	switch {
	case op.IsCondBranch():
		e.actualTaken = isa.BranchTaken(op, e.src1Val, e.src2Val)
		e.actualTarget = e.inst.Target
		if e.actualTaken {
			next = e.inst.Target
		} else {
			next = e.pc + 1
		}
	case op == isa.OpJmp:
		e.actualTaken, e.actualTarget = true, e.inst.Target
		next = e.inst.Target
	case op == isa.OpCall:
		e.actualTaken, e.actualTarget = true, e.inst.Target
		e.destVal = uint64(e.pc + 1)
		next = e.inst.Target
	case op == isa.OpJmpI, op == isa.OpRet:
		e.actualTaken = true
		e.actualTarget = int(e.src1Val)
		next = e.actualTarget
		if op == isa.OpJmpI {
			c.bp.TrainTarget(e.pc, e.actualTarget)
		}
	}
	e.st = stCompleted

	if c.fetchStalled && e.btbMiss {
		// This is the exact instruction fetch is stalled on (BTB miss), by
		// construction the youngest ever fetched: resume down the resolved
		// path; nothing younger exists to squash. An OLDER branch resolving
		// during the stall must not take this path — the stalled jump may
		// still be in the fetch buffer (not yet in the ROB), and wrong-path
		// instructions between the two would survive an un-squashed
		// redirect.
		c.fetchStalled = false
		c.pc = next
		return false
	}

	mispredict := false
	if op.IsCondBranch() {
		mispredict = e.actualTaken != e.predTaken
	} else if op == isa.OpJmpI || op == isa.OpRet {
		mispredict = e.actualTarget != e.predTarget
	}
	if !mispredict {
		return false
	}
	e.mispredicted = true
	c.bp.NoteMisprediction()
	c.st.Mispredicts++
	c.bp.Restore(e.snap)
	if op.IsCondBranch() {
		c.bp.FixupHistory(e.actualTaken)
	} else if op == isa.OpRet {
		// The snapshot re-pushed the consumed RAS entry; the return did
		// architecturally consume it.
		c.bp.PopRAS()
	}
	c.squashFromLogical(logical+1, stats.SquashBranch, next, false)
	return true
}

// updateFenceCompletion advances fence-like instructions. A defense
// (synthetic) fence completes when every older instruction has completed; a
// full fence additionally requires all older stores to have performed (no
// older store in the ROB and an empty write buffer); an acquire requires all
// older loads performed; a release requires older loads performed and older
// stores performed. The walk goes oldest first, so younger fences see an
// older one completed this cycle; it ends at the youngest open fence, or at
// the first unperformed load, past which no condition can hold, and with no
// fence open it does not start.
func (c *Core) updateFenceCompletion() {
	open := c.openFences
	allOlderDone := true
	olderLoadsPerformed := true
	olderStorePresent := false
	for i := 0; open > 0 && olderLoadsPerformed && i < c.robCnt; i++ {
		e := c.robAt(i)
		op := e.inst.Op
		if isFenceLike(e) && !e.fenceDone {
			open--
			done := false
			switch {
			case e.synthetic:
				done = allOlderDone
			case op == isa.OpFence:
				done = allOlderDone && !olderStorePresent && len(c.wb) == 0
			case op == isa.OpAcquire:
				done = olderLoadsPerformed
			case op == isa.OpRelease:
				done = olderLoadsPerformed && !olderStorePresent && len(c.wb) == 0
			}
			if done {
				c.completeFence(c.robPhys(i), e)
			}
		}
		if e.st != stCompleted {
			allOlderDone = false
		}
		if op == isa.OpLoad {
			if e.lqIdx >= 0 && !c.lq[e.lqIdx].performed {
				olderLoadsPerformed = false
				allOlderDone = false
			}
		}
		if op == isa.OpStore {
			olderStorePresent = true
		}
		if isFenceLike(e) && !e.fenceDone {
			allOlderDone = false
		}
	}
}

// completeFence completes the open fence-like entry e in slot phys.
func (c *Core) completeFence(phys int, e *robEntry) {
	c.markActive()
	if e.st == stDispatched {
		c.waiting = dropSlot(c.waiting, phys)
	}
	e.fenceDone = true
	e.st = stCompleted
	c.openFences--
	c.barriers = dropSlot(c.barriers, phys)
}
