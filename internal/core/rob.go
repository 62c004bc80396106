package core

import (
	"math/bits"

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
// every ready entry it visits come first, so they share a cache line or
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
	predTaken   bool
	btbMiss     bool // the indirect jump fetch is stalled on
	hasSnap     bool
	resolved    bool
	actualTaken bool

	// RMW progress.
	rmwIssued bool

	execDoneAt uint64

	src1Val uint64
	src2Val uint64
	destVal uint64
	// consumers counts the src1Rob/src2Rob references younger entries
	// still hold to this slot; complete hands them the result.
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

// Bit masks over the physical ROB or LQ slots.
func setBit(m []uint64, i int)      { m[i>>6] |= 1 << (i & 63) }
func clearBit(m []uint64, i int)    { m[i>>6] &^= 1 << (i & 63) }
func hasBit(m []uint64, i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

// nextBit returns the first slot at or after i and before end whose bit is
// set in m, or end. It reads m afresh, so a caller walking a mask it
// changes on the way sees every bit set ahead of it.
func nextBit(m []uint64, i, end int) int {
	for i < end {
		if w := m[i>>6] >> (i & 63); w != 0 {
			return min(i+bits.TrailingZeros64(w), end)
		}
		i = (i | 63) + 1
	}
	return end
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
// ROB (and LQ/SQ), applying the scheme's front-end policy: stalls at
// basic-block boundaries (StallAtBlocks) and synthetic fence injection
// (Table V).
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
		if c.sch.StallAtBlocks && fi.blockStart && c.unresolvedControl() {
			return
		}
		// Defense fences occupy an extra ROB slot (Table V).
		fenceBefore := c.sch.FenceBeforeLoads && op == isa.OpLoad
		fenceAfter := c.sch.FenceAfterBranches && isBranchNeedingFence(op)
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

// unresolvedControl reports whether any mispredictable control instruction
// (conditional branch, indirect jump, return) in the ROB is unresolved.
// Direct jumps and calls are excluded: their targets are statically known,
// so they never redirect the front end away from the predicted path.
func (c *Core) unresolvedControl() bool {
	for _, phys := range c.unresolved {
		if isBranchNeedingFence(c.rob[phys].inst.Op) {
			return true
		}
	}
	return false
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
	// Zeroed, then filled in place: a composite literal would be built on
	// the stack and copied into the ring.
	*e = robEntry{}
	e.valid, e.seq, e.pc, e.inst, e.synthetic = true, c.nextToken, fi.pc, fi.inst, fi.synthetic
	e.st, e.src1Rob, e.src2Rob = stDispatched, noDep, noDep
	e.predTaken, e.predTarget, e.btbMiss = fi.predTaken, fi.predTarget, fi.btbMiss
	e.hasSnap, e.snap = fi.hasSnap, fi.snap
	e.lqIdx, e.sqIdx = -1, -1
	op := fi.inst.Op
	if needsSrc1(op) {
		e.src1Rob, e.src1Val = c.rename(fi.inst.Rs1)
	}
	if needsSrc2(op) {
		e.src2Rob, e.src2Val = c.rename(fi.inst.Rs2)
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
	if e.st == stDispatched && e.src1Rob == noDep && e.src2Rob == noDep {
		setBit(c.ready, phys)
	}
	if isFenceLike(e) && !e.fenceDone {
		c.openFences++
		c.barriers = append(c.barriers, phys)
	} else if op == isa.OpRMW {
		c.barriers = append(c.barriers, phys)
	} else if op.IsBranch() {
		c.unresolved = append(c.unresolved, phys)
	}
}

// rename returns a source operand's producing ROB slot while the producer
// is in flight, registering the reference with it; once the producer has
// completed, or retired into the register file, it returns noDep and the
// value.
func (c *Core) rename(r uint8) (int, uint64) {
	p := c.rat[r]
	if p < 0 {
		return noDep, c.regs[r]
	}
	if pe := &c.rob[p]; pe.st == stCompleted {
		return noDep, pe.destVal
	}
	c.rob[p].consumers++
	return p, 0
}

// complete moves the entry in slot phys to the completed state and hands
// its result to every younger entry still referencing it. An entry whose
// operands are then all captured is ready to issue.
func (c *Core) complete(phys int) {
	p := &c.rob[phys]
	p.st = stCompleted
	for i := c.robLogical(phys) + 1; p.consumers > 0 && i < c.robCnt; i++ {
		e := c.robAt(i)
		captured := false
		if e.src1Rob == phys {
			e.src1Rob, e.src1Val = noDep, p.destVal
			p.consumers--
			captured = true
		}
		if e.src2Rob == phys {
			e.src2Rob, e.src2Val = noDep, p.destVal
			p.consumers--
			captured = true
		}
		if captured && e.src1Rob == noDep && e.src2Rob == noDep {
			setBit(c.ready, c.robPhys(i))
		}
	}
}

// issue selects up to IssueWidth ready instructions, oldest first, honouring
// functional-unit counts and fence blocking. It visits the ready entries
// only, from the ROB head to the end of the ring and then the wrapped
// slots; issueGate applies the ordering rules. An entry an older memory
// barrier holds back parks until a barrier closes (closeBarrier).
func (c *Core) issue() {
	if !anyBit(c.ready) {
		return
	}
	slots := c.cfg.IssueWidth
	fu := fuBudget{alus: c.cfg.IntALUs, muldivs: c.cfg.MulDivUnits, agus: c.cfg.L1D.Ports}
	g := c.issueGate()
	for _, span := range [2][2]int{{c.robHead, len(c.rob)}, {0, c.robHead}} {
		// nextBit re-reads the mask on every visit: parking and issuing
		// clear bits, and a completion at issue readies younger entries.
		end := span[1]
		for i := nextBit(c.ready, span[0], end); i < end && slots > 0; i = nextBit(c.ready, i+1, end) {
			e := &c.rob[i]
			switch {
			case g.closed(e):
				return
			case g.holds(e):
				clearBit(c.ready, i)
				setBit(c.parked, i)
			case c.startExec(i, e, &fu):
				clearBit(c.ready, i)
				c.markActive()
				slots--
			}
		}
	}
}

// anyBit reports whether any bit of m is set.
func anyBit(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
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
		c.complete(phys)
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

// issueGate applies issue's ordering rules to a walk of the ready entries,
// oldest first: all and mem are the sequence numbers of the oldest barriers
// of each kind (^0 when none).
type issueGate struct{ all, mem uint64 }

// issueGate considers the open barriers in age order: every issued one,
// and every dispatched one that no older barrier holds back, whether or
// not its operands are ready. A barrier that is itself held back holds
// back nothing younger, and past the oldest barrier that closes issue
// nothing younger matters.
func (c *Core) issueGate() issueGate {
	g := issueGate{all: ^uint64(0), mem: ^uint64(0)}
	for _, phys := range c.barriers {
		e := &c.rob[phys]
		if g.closed(e) {
			break
		}
		if e.st != stDispatched || !g.holds(e) {
			g.consider(e)
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
			c.complete(phys)
		case op.IsALU():
			e.destVal = isa.EvalALU(op, e.src1Val, e.src2Val, e.inst.Imm)
			c.complete(phys)
		case op.IsBranch():
			if c.resolveBranch(phys, e) {
				return // squash invalidated the scan
			}
		case op == isa.OpLoad || op == isa.OpPrefetch:
			lq := &c.lq[e.lqIdx]
			// Natural alignment mirrors the golden interpreter: the LSQ
			// forwarding masks and the speculative buffer track data within
			// one 64-byte line, which aligned accesses never straddle.
			lq.addr = isa.AlignAddr(e.src1Val+uint64(e.inst.Imm), lq.size)
			lq.addrReady = true
			setBit(c.lqWork, e.lqIdx)
			e.st = stWaitMem
		case op == isa.OpStore:
			sq := &c.sq[e.sqIdx]
			sq.addr = isa.AlignAddr(e.src1Val+uint64(e.inst.Imm), sq.size)
			sq.addrReady = true
			sq.data = e.src2Val
			sq.dataReady = true
			c.complete(phys)
			if c.storeAliasSquash(sq) {
				return
			}
		case op == isa.OpRMW, op == isa.OpFlush:
			e.st = stWaitMem // waits for ROB head; memStep issues it
		default:
			c.complete(phys)
		}
	}
}

// resolveBranch compares outcome with prediction, squashing on a
// misprediction. It reports whether a squash happened.
func (c *Core) resolveBranch(phys int, e *robEntry) bool {
	op := e.inst.Op
	e.resolved = true
	c.unresolved = dropSlot(c.unresolved, phys)
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
	c.complete(phys)

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
	c.squashFromLogical(c.robLogical(phys)+1, stats.SquashBranch, next, false)
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

// completeFence completes the open fence-like entry e in slot phys, which
// may not have issued yet.
func (c *Core) completeFence(phys int, e *robEntry) {
	c.markActive()
	clearBit(c.ready, phys)
	clearBit(c.parked, phys)
	e.fenceDone = true
	c.complete(phys)
	c.openFences--
	c.closeBarrier(phys)
}

// closeBarrier drops the completed barrier in slot phys and returns every
// parked entry to the ready mask; the next issue walk parks again whatever
// an older barrier still holds back.
func (c *Core) closeBarrier(phys int) {
	c.barriers = dropSlot(c.barriers, phys)
	for i, w := range c.parked {
		c.ready[i] |= w
		c.parked[i] = 0
	}
}
