package core

import (
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/isa"
)

// This file exposes read-only views of the core's in-flight state for the
// hardening layer (internal/invariant): occupancy bounds, queue-window
// integrity, TSO write-buffer FIFO order, forward-progress inputs, and the
// last-squash record carried in deadlock dumps. It also hosts the mutation
// self-test hook that artificially stalls retirement.

// Occupancy is a snapshot of the core's structural-resource usage.
type Occupancy struct {
	ROB, LQ, SQ, WB             int
	ROBCap, LQCap, SQCap, WBCap int
}

// Occupancy returns the current queue occupancies and capacities.
func (c *Core) Occupancy() Occupancy {
	return Occupancy{
		ROB: c.robCnt, LQ: c.lqCnt, SQ: c.sqCnt, WB: len(c.wb),
		ROBCap: len(c.rob), LQCap: len(c.lq), SQCap: len(c.sq), WBCap: c.cfg.WBEntries,
	}
}

// Progress reports the core's forward-progress signals: instructions retired
// so far, the current fetch PC, and whether the thread has halted.
func (c *Core) Progress() (retired uint64, pc int, halted bool) {
	return c.st.Retired, c.pc, c.halted
}

// Epoch returns the core's current squash epoch (§VI-C).
func (c *Core) Epoch() uint64 { return c.epoch }

// SquashInfo records the most recent pipeline squash (for deadlock dumps).
type SquashInfo struct {
	Happened bool
	Cycle    uint64
	Reason   string
	Flushed  int // ROB entries squashed
	Redirect int // PC fetch resumed at
}

// LastSquash returns the most recent squash event, if any.
func (c *Core) LastSquash() SquashInfo { return c.lastSquash }

// StructuralCheck audits the core's queue invariants and returns a
// descriptive error for the first violation found:
//
//   - ROB/LQ/SQ/WB occupancies within configured capacities;
//   - every entry inside a circular-queue window [head, head+cnt) is valid
//     and sequence numbers are strictly increasing (squashes only ever
//     remove a suffix, so holes or inversions indicate corruption);
//   - ROB<->LQ/SQ cross-links agree in both directions;
//   - the state the stages maintain about the ROB equals what a scan of the
//     ROB derives (checkStageState);
//   - under TSO, the write buffer drains FIFO: tokens strictly increase, at
//     most one entry is in flight, and no performed entry lingers behind the
//     head (performed heads are popped eagerly).
func (c *Core) StructuralCheck() error {
	o := c.Occupancy()
	switch {
	case o.ROB < 0 || o.ROB > o.ROBCap:
		return fmt.Errorf("core%d: ROB occupancy %d outside [0,%d]", c.id, o.ROB, o.ROBCap)
	case o.LQ < 0 || o.LQ > o.LQCap:
		return fmt.Errorf("core%d: LQ occupancy %d outside [0,%d]", c.id, o.LQ, o.LQCap)
	case o.SQ < 0 || o.SQ > o.SQCap:
		return fmt.Errorf("core%d: SQ occupancy %d outside [0,%d]", c.id, o.SQ, o.SQCap)
	case o.WB > o.WBCap:
		return fmt.Errorf("core%d: WB occupancy %d exceeds %d", c.id, o.WB, o.WBCap)
	}
	var prev uint64
	for i := 0; i < c.robCnt; i++ {
		e := c.robAt(i)
		if !e.valid {
			return fmt.Errorf("core%d: rob[%d] in window but invalid", c.id, i)
		}
		if i > 0 && e.seq <= prev {
			return fmt.Errorf("core%d: rob[%d] seq %d not above predecessor %d", c.id, i, e.seq, prev)
		}
		prev = e.seq
		if e.lqIdx >= 0 {
			lq := &c.lq[e.lqIdx]
			if !lq.valid || lq.seq != e.seq || lq.robIdx != c.robPhys(i) {
				return fmt.Errorf("core%d: rob[%d] seq %d -> lq[%d] link broken (valid=%v seq=%d robIdx=%d)",
					c.id, i, e.seq, e.lqIdx, lq.valid, lq.seq, lq.robIdx)
			}
		}
		if e.sqIdx >= 0 {
			sq := &c.sq[e.sqIdx]
			if !sq.valid || sq.seq != e.seq || sq.robIdx != c.robPhys(i) {
				return fmt.Errorf("core%d: rob[%d] seq %d -> sq[%d] link broken (valid=%v seq=%d robIdx=%d)",
					c.id, i, e.seq, e.sqIdx, sq.valid, sq.seq, sq.robIdx)
			}
		}
	}
	prev = 0
	for i := 0; i < c.lqCnt; i++ {
		e := c.lqAt(i)
		if !e.valid {
			return fmt.Errorf("core%d: lq[%d] in window but invalid", c.id, i)
		}
		if i > 0 && e.seq <= prev {
			return fmt.Errorf("core%d: lq[%d] seq %d not above predecessor %d", c.id, i, e.seq, prev)
		}
		prev = e.seq
		if !c.rob[e.robIdx].valid || c.rob[e.robIdx].seq != e.seq {
			return fmt.Errorf("core%d: lq[%d] seq %d -> rob[%d] link broken", c.id, i, e.seq, e.robIdx)
		}
	}
	prev = 0
	for i := 0; i < c.sqCnt; i++ {
		e := c.sqAt(i)
		if !e.valid {
			return fmt.Errorf("core%d: sq[%d] in window but invalid", c.id, i)
		}
		if i > 0 && e.seq <= prev {
			return fmt.Errorf("core%d: sq[%d] seq %d not above predecessor %d", c.id, i, e.seq, prev)
		}
		prev = e.seq
		if !c.rob[e.robIdx].valid || c.rob[e.robIdx].seq != e.seq {
			return fmt.Errorf("core%d: sq[%d] seq %d -> rob[%d] link broken", c.id, i, e.seq, e.robIdx)
		}
	}
	if err := c.checkStageState(); err != nil {
		return err
	}
	return c.checkWBFIFO()
}

// checkStageState recomputes, by scanning the ROB and the LQ, each counter,
// mask and list the pipeline stages maintain incrementally, and reports the
// first that disagrees: the open-fence count, every slot's rename-reference
// count (none left on a completed entry), the ready and parked masks, the
// executing, barrier and unresolved-control lists (content and age order),
// and the LQ work mask.
func (c *Core) checkStageState() error {
	open := 0
	refs := make([]int, len(c.rob))
	for i := 0; i < c.robCnt; i++ {
		e := c.robAt(i)
		for _, src := range [2]int{e.src1Rob, e.src2Rob} {
			if src == noDep {
				continue
			}
			if src < 0 || src >= len(c.rob) || c.robLogical(src) >= i {
				return fmt.Errorf("core%d: rob[%d] seq %d reads slot %d, not an older entry", c.id, i, e.seq, src)
			}
			refs[src]++
		}
		if isFenceLike(e) && !e.fenceDone {
			open++
		}
	}
	if open != c.openFences {
		return fmt.Errorf("core%d: open-fence count %d, ROB holds %d open fences", c.id, c.openFences, open)
	}
	for i := 0; i < c.robCnt; i++ {
		phys := c.robPhys(i)
		e := &c.rob[phys]
		if e.consumers != refs[phys] {
			return fmt.Errorf("core%d: rob[%d] seq %d consumer count %d, younger entries hold %d references",
				c.id, i, e.seq, e.consumers, refs[phys])
		}
		if e.st == stCompleted && e.consumers > 0 {
			return fmt.Errorf("core%d: rob[%d] seq %d completed with %d consumers still waiting for it",
				c.id, i, e.seq, e.consumers)
		}
	}
	if err := c.checkIssueMasks(); err != nil {
		return err
	}
	if err := c.checkSlotList("executing", c.executing, func(e *robEntry) bool {
		return e.st == stExecuting
	}); err != nil {
		return err
	}
	if err := c.checkSlotList("barrier", c.barriers, func(e *robEntry) bool {
		return (isFenceLike(e) && !e.fenceDone) || (e.inst.Op == isa.OpRMW && e.st != stCompleted)
	}); err != nil {
		return err
	}
	if err := c.checkSlotList("unresolved", c.unresolved, func(e *robEntry) bool {
		return e.inst.Op.IsBranch() && !e.resolved
	}); err != nil {
		return err
	}
	return c.checkLQWork()
}

// checkLQWork verifies that the LQ work mask holds exactly the entries
// memStep can act on: an entry that can act without its bit would never be
// stepped, and a bit on any other slot, inside the LQ window or not, would
// step an entry with nothing to do or a freed slot.
func (c *Core) checkLQWork() error {
	want := make([]uint64, len(c.lqWork))
	for i := 0; i < c.lqCnt; i++ {
		if c.lqCanAct(c.lqAt(i)) {
			setBit(want, c.lqPhys(i))
		}
	}
	for i, w := range want {
		if c.lqWork[i] != w {
			return fmt.Errorf("core%d: LQ work mask %v, want the entries memStep can act on %v",
				c.id, maskSlots(c.lqWork), maskSlots(want))
		}
	}
	return nil
}

// checkIssueMasks verifies that the ready and parked masks are disjoint,
// that together they hold exactly the dispatched entries whose operands are
// all captured, and that each parked entry is a memory operation or a fence
// with an older open memory barrier.
func (c *Core) checkIssueMasks() error {
	for i := range c.ready {
		if both := c.ready[i] & c.parked[i]; both != 0 {
			return fmt.Errorf("core%d: ready and parked masks share slots %v", c.id, maskSlots([]uint64{both}))
		}
	}
	want := make([]uint64, len(c.ready))
	olderMemBarrier := false
	for i := 0; i < c.robCnt; i++ {
		phys := c.robPhys(i)
		e := &c.rob[phys]
		if e.st == stDispatched && e.src1Rob == noDep && e.src2Rob == noDep {
			setBit(want, phys)
		}
		if hasBit(c.parked, phys) && !(olderMemBarrier && (e.inst.Op.IsMem() || e.inst.Op == isa.OpFence)) {
			return fmt.Errorf("core%d: rob[%d] seq %d %v parked with no older memory barrier open",
				c.id, i, e.seq, e.inst.Op)
		}
		if barrierOf(e) == barrierMem {
			olderMemBarrier = true
		}
	}
	for i, w := range want {
		if got := c.ready[i] | c.parked[i]; got != w {
			return fmt.Errorf("core%d: ready mask %v and parked mask %v, want the dispatched entries with captured operands %v",
				c.id, maskSlots(c.ready), maskSlots(c.parked), maskSlots(want))
		}
	}
	return nil
}

// checkSlotList verifies that list holds exactly the physical slots of the
// ROB entries for which member holds, oldest first.
func (c *Core) checkSlotList(name string, list []int, member func(*robEntry) bool) error {
	k := 0
	for i := 0; i < c.robCnt; i++ {
		if !member(c.robAt(i)) {
			continue
		}
		if k >= len(list) || list[k] != c.robPhys(i) {
			return fmt.Errorf("core%d: %s list %v, want slot %d (rob[%d]) at position %d",
				c.id, name, list, c.robPhys(i), i, k)
		}
		k++
	}
	if k != len(list) {
		return fmt.Errorf("core%d: %s list %v has %d entries, ROB has %d", c.id, name, list, len(list), k)
	}
	return nil
}

// checkWBFIFO audits write-buffer ordering. Both models require strictly
// increasing tokens (stores enter in retirement order and are never
// reordered); TSO additionally requires one-at-a-time drains and eager head
// popping, so a performed entry behind an unperformed one is a leak.
func (c *Core) checkWBFIFO() error {
	inflight := 0
	var prev uint64
	for i := range c.wb {
		w := &c.wb[i]
		if i > 0 && w.token <= prev {
			return fmt.Errorf("core%d: wb[%d] token %d not above predecessor %d (FIFO order broken)",
				c.id, i, w.token, prev)
		}
		prev = w.token
		if w.inflight {
			inflight++
		}
		if c.run.Consistency == config.TSO {
			if w.done {
				return fmt.Errorf("core%d: wb[%d] performed but not popped under TSO", c.id, i)
			}
			if w.inflight && i != 0 {
				return fmt.Errorf("core%d: wb[%d] in flight but not the FIFO head under TSO", c.id, i)
			}
		}
	}
	max := 8
	if c.run.Consistency == config.TSO {
		max = 1
	}
	if inflight > max {
		return fmt.Errorf("core%d: %d write-buffer drains in flight, max %d under %v",
			c.id, inflight, max, c.run.Consistency)
	}
	return nil
}

// InjectRetireStall permanently disables this core's retirement stage. It
// exists ONLY for the mutation self-test in internal/invariant, which seeds
// known bugs to prove the forward-progress watchdog fires; nothing in normal
// operation calls it.
func (c *Core) InjectRetireStall() { c.retireStalled = true }
