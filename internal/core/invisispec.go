package core

import (
	"math/bits"

	"invisispec/internal/config"
	"invisispec/internal/defense"
	"invisispec/internal/isa"
	"invisispec/internal/memsys"
	"invisispec/internal/stats"
)

// This file implements the InvisiSpec load flows of paper §V–§VI: deciding
// whether a load is an Unsafe Speculative Load (USL), issuing invisible
// Spec-GetS reads into the Speculative Buffer, tracking the visibility
// point under the Spectre and Futuristic attack models, choosing between
// validation and exposure per the memory consistency model, ordering and
// overlapping those transactions, and reacting to invalidations with early
// squashes.

// loadSafeNow reports whether the load e may be issued as a normal
// (visible) access under the run's scheme.
func (c *Core) loadSafeNow(e *lqEntry) bool {
	// §XI optimization: a load proven safe in advance needs no InvisiSpec
	// hardware. This threat-model carve-out comes before the visibility
	// point, so every invisible-load scheme inherits it identically.
	return (e.safeAnnot && c.cfg.TrustSafeAnnotations) || c.visible(c.robLogical(e.robIdx))
}

// visible reports whether the instruction at logical ROB position rl has
// reached the scheme's visibility point (§V-A1): a load there may issue as
// an ordinary access, and a USL there may start its validation or
// exposure. Every point holds for the ROB head (rl == 0), or retirement
// would deadlock.
func (c *Core) visible(rl int) bool {
	switch c.sch.Visible {
	case defense.AfterBranches:
		// The Spectre model: the oldest unresolved control instruction,
		// if any, is not older than rl.
		return len(c.unresolved) == 0 || c.robLogical(c.unresolved[0]) >= rl
	case defense.Unsquashable:
		return c.futureVisible(rl)
	case defense.AtHead:
		return rl == 0
	}
	return true
}

// futureVisible implements the §VIII conditions for the Futuristic model:
// every older instruction (i) can no longer raise an exception, (ii) is not
// an unresolved control-flow instruction, (iii) is not a store still in the
// ROB (stores must have retired into the write buffer), (iv) is a load that
// has finished its validation or initiated its exposure, and (v) is not an
// incomplete synchronisation or fence. Interrupts are handled by the
// §VI-D interrupt-disable window (see interruptsDisabled).
func (c *Core) futureVisible(rl int) bool {
	for j := 0; j < rl; j++ {
		o := c.robAt(j)
		op := o.inst.Op
		switch {
		case op.IsBranch():
			if !o.resolved {
				return false
			}
		case op == isa.OpLoad, op == isa.OpPrefetch:
			lq := &c.lq[o.lqIdx]
			if !lq.performed || lq.priv {
				return false
			}
			if lq.isUSL {
				if lq.needV && !lq.valExpDone {
					return false
				}
				if !lq.needV && !lq.valExpIssued {
					return false
				}
			}
		case op == isa.OpStore, op == isa.OpRMW, op == isa.OpHalt:
			return false
		case isFenceLike(o):
			if !o.fenceDone {
				return false
			}
		}
	}
	return true
}

// issueUSL sends an invisible Spec-GetS for the load in LQ slot phys,
// first trying to reuse the line from an older USL's SB entry (§V-E).
func (c *Core) issueUSL(phys int, e *lqEntry) {
	c.markActive()
	e.isUSL = true
	if c.cfg.SBReuse {
		for j := c.lqLogical(phys) - 1; j >= 0; j-- {
			o := c.lqAt(j)
			if !o.valid || !o.isUSL || !o.addrReady {
				continue
			}
			if o.lineAddr() != e.lineAddr() {
				continue
			}
			if o.lineCaptured {
				c.copySBLine(e, o)
				c.st.SBReuseHits++
				return
			}
			if o.issued || o.waitingReuse {
				// Wait for the older USL's line; its arrival, or the older
				// USL leaving the LQ, wakes e (wakeReuse).
				e.waitingReuse = true
				e.reuseFromIdx = c.lqPhys(j)
				e.reuseFromSeq = o.seq
				e.issued = true
				o.waitedOn = true
				c.st.SBReuseHits++
				return
			}
		}
	}
	tok := c.token()
	req := memsys.Request{
		Type:  memsys.SpecRead,
		Core:  c.id,
		Addr:  e.addr,
		Token: tok,
		LQIdx: phys,
		Epoch: c.epoch,
	}
	if c.submit(req) {
		e.issued = true
		e.reqToken = tok
		c.st.USLsIssued++
		c.st.SBReuseMisses++
	}
}

// copySBLine copies an older USL's SB line into e (preserving e's
// store-forwarded bytes) and performs e.
func (c *Core) copySBLine(e, src *lqEntry) {
	c.markActive()
	for b := uint64(0); b < 64; b++ {
		if e.fwdMask&(1<<b) == 0 {
			e.sbData[b] = src.sbData[b]
		}
	}
	off := e.addr - e.lineAddr()
	for b := uint64(0); b < uint64(e.size); b++ {
		e.readMask |= 1 << (off + b)
	}
	e.lineCaptured = true
	e.waitingReuse = false
	e.reused = true
	e.issued = true
	if e.fwdFromSeq == 0 {
		e.value = e.loadValue()
	}
	c.markPerformed(e)
	c.wakeReuse(e)
}

// reuseStep takes up a woken reuse-waiting USL: it copies its source's
// line, or issues its own read once the source has left the LQ. So it does
// when the source bounced and re-issued as a safe load: that load's line
// lands in the L1, and its SB entry never holds it.
func (c *Core) reuseStep(e *lqEntry) {
	src := &c.lq[e.reuseFromIdx]
	if !src.valid || src.seq != e.reuseFromSeq || src.lineCaptured && !src.isUSL {
		c.markActive()
		e.waitingReuse = false
		e.issued = false
		return
	}
	if src.lineCaptured {
		c.copySBLine(e, src)
	}
}

// wakeReuseWaiters copies a freshly arrived line into every USL waiting on
// it.
func (c *Core) wakeReuseWaiters(src *lqEntry) {
	for i := 0; src.waitedOn && i < c.lqCnt; i++ {
		e := c.lqAt(i)
		if e.valid && e.waitingReuse && e.reuseFromSeq == src.seq {
			c.copySBLine(e, src)
		}
	}
}

// wakeReuse sets the work bit of every USL waiting to reuse src's line,
// because the line landed or src is leaving the LQ; memStep's next visit
// copies the line or issues the waiter's own read (reuseStep).
func (c *Core) wakeReuse(src *lqEntry) {
	for i := 0; src.waitedOn && i < c.lqCnt; i++ {
		if e := c.lqAt(i); e.waitingReuse && e.reuseFromSeq == src.seq {
			setBit(c.lqWork, c.lqPhys(i))
		}
	}
}

// decideValidationOrExposure classifies a USL at perform time per the
// memory model (§V-C): under TSO a USL needs a validation if any older load
// or fence is still outstanding (the §V-C1 transform downgrades that to an
// exposure when every older load has performed and validated); under RC
// only USLs with an older incomplete fence/acquire validate.
func (c *Core) decideValidationOrExposure(e *lqEntry) {
	if e.prefetch {
		e.needV = false // prefetches skip consistency checks (§VI-B)
		return
	}
	if e.reused {
		// A reused SB line is a snapshot taken at an OLDER load's read: the
		// value may already be stale, so the load must validate. Without
		// this, a spin loop whose iterations keep copying one stale line
		// would never observe the lock release (liveness violation).
		e.needV = true
		return
	}
	rl := c.robLogical(e.robIdx)
	needV := false
	for j := 0; j < rl && !needV; j++ {
		o := c.robAt(j)
		op := o.inst.Op
		switch {
		case op == isa.OpLoad:
			if c.run.Consistency != config.TSO {
				continue
			}
			if !c.cfg.VToETransform {
				needV = true
				continue
			}
			lq := &c.lq[o.lqIdx]
			if !lq.performed {
				needV = true
			} else if lq.isUSL && lq.needV && !lq.valExpDone {
				needV = true
			}
		case isFenceLike(o), op == isa.OpRMW:
			if op == isa.OpRelease && c.run.Consistency == config.RC {
				continue // releases do not order later loads under RC
			}
			if !o.fenceDone && op != isa.OpRMW || op == isa.OpRMW && o.st != stCompleted {
				needV = true
			}
		}
	}
	e.needV = needV
}

// invisiStep issues validations and exposures for USLs that have reached
// their visibility point, honouring the §V-D ordering rules: transactions
// start in program order; under the Futuristic model an in-flight
// validation blocks everything younger while exposures overlap; same-line
// transactions are totally ordered.
func (c *Core) invisiStep() {
	if !c.sch.InvisibleLoads() {
		return
	}
	for i := 0; i < c.lqCnt; i++ {
		e := c.lqAt(i)
		if !e.valid || !e.isUSL {
			continue
		}
		if e.valExpIssued {
			if e.valExpDone {
				continue
			}
			if e.needV && (c.sch.ValidationBlocksYounger || !c.cfg.OverlapValExp) {
				return // a validation blocks all younger transactions
			}
			if !e.needV && !c.cfg.OverlapValExp {
				return
			}
			continue
		}
		if !e.lineCaptured || e.waitingReuse {
			// Its own data has not arrived: nothing younger may start
			// either (program-order start).
			return
		}
		if !c.visible(c.robLogical(e.robIdx)) {
			return
		}
		// Same-line total order with older in-flight transactions.
		blocked := false
		for j := 0; j < i; j++ {
			o := c.lqAt(j)
			if o.valid && o.isUSL && o.valExpIssued && !o.valExpDone &&
				o.lineAddr() == e.lineAddr() {
				blocked = true
				break
			}
		}
		if blocked {
			return
		}
		typ := memsys.Expose
		if e.needV {
			typ = memsys.Validate
		}
		tok := c.token()
		req := memsys.Request{
			Type:  typ,
			Core:  c.id,
			Addr:  e.addr,
			Token: tok,
			LQIdx: c.lqPhys(i),
			Epoch: c.epoch,
		}
		if !c.submit(req) {
			return
		}
		e.valExpIssued = true
		e.valExpToken = tok
		if e.tlbTouchOwed {
			// Apply the deferred TLB replacement update at visibility.
			c.dtlb.Touch(e.addr)
			e.tlbTouchOwed = false
		}
		if !e.needV {
			c.st.Exposures++
		}
		if e.needV && (c.sch.ValidationBlocksYounger || !c.cfg.OverlapValExp) {
			return
		}
	}
}

// validationArrived compares the SB bytes against the line's current value;
// a mismatch squashes the load (memory-consistency enforcement, §V-A4). On
// success, younger same-line USLs awaiting validation are cross-checked and
// squashed early if already stale (§V-C2).
func (c *Core) validationArrived(r memsys.Response) {
	e := &c.lq[r.LQIdx]
	if !e.valid || !e.valExpIssued || e.valExpToken != r.Token {
		return // squashed while in flight
	}
	if r.L1Hit {
		c.st.ValidationsL1Hit++
	} else {
		// LLC-SB-served validations are L1 misses in Table VI's accounting;
		// the LLC-SB hit rate is reported separately.
		c.st.ValidationsL1Miss++
	}
	if !c.sbMatchesMemory(e) {
		c.st.ValidationFailures++
		c.squashLoad(e, stats.SquashValidation)
		return
	}
	e.valExpDone = true
	if !c.cfg.EarlySquash {
		return
	}
	for i := 0; i < c.lqCnt; i++ {
		o := c.lqAt(i)
		if !o.valid || o.seq <= e.seq || !o.performed || !o.isUSL {
			continue
		}
		if !o.needV || o.valExpDone || o.lineAddr() != e.lineAddr() {
			continue
		}
		if !c.sbMatchesMemory(o) {
			c.squashLoad(o, stats.SquashEarly)
			return
		}
	}
}

// sbMatchesMemory compares the bytes the load consumed (excluding
// store-forwarded bytes, which never came from memory) against the current
// memory value.
func (c *Core) sbMatchesMemory(e *lqEntry) bool {
	var line [isa.LineBytes]byte
	c.mem.CopyLine(&line, e.lineAddr())
	for mask := e.readMask &^ e.fwdMask; mask != 0; mask &= mask - 1 {
		if b := bits.TrailingZeros64(mask); e.sbData[b] != line[b] {
			return false
		}
	}
	return true
}

// exposureArrived completes an exposure (the line is now in the caches).
// The USL may already have retired; stale tokens are ignored.
func (c *Core) exposureArrived(r memsys.Response) {
	if e := &c.lq[r.LQIdx]; e.valid && e.valExpIssued && e.valExpToken == r.Token {
		e.valExpDone = true
	}
}

// onLineGone reacts to a line leaving the L1 (invalidation or eviction):
// conventional performed loads squash per the consistency model; V-state
// USLs squash early on invalidations (§V-C2); E/C-state USLs are unaffected
// (the optimization the paper credits for blackscholes/swaptions speedups).
func (c *Core) onLineGone(lineNum uint64, isInvalidation bool) {
	for i := 0; i < c.lqCnt; i++ {
		e := c.lqAt(i)
		if !e.valid || !e.performed || e.fwdFromSeq != 0 {
			continue
		}
		if e.lineAddr()/isa.LineBytes != lineNum {
			continue
		}
		if e.isUSL {
			if isInvalidation && e.needV && !e.valExpDone && c.cfg.EarlySquash {
				c.squashLoad(e, stats.SquashEarly)
				return
			}
			continue
		}
		// Conventional (or safe-N) performed, non-retired load.
		if c.run.Consistency == config.TSO {
			c.squashLoad(e, stats.SquashConsistency)
			return
		}
		if c.hasOlderAcquire(c.robLogical(e.robIdx)) {
			c.squashLoad(e, stats.SquashConsistency)
			return
		}
	}
}

func (c *Core) hasOlderAcquire(rl int) bool {
	for j := 0; j < rl; j++ {
		switch c.robAt(j).inst.Op {
		case isa.OpAcquire, isa.OpFence, isa.OpRMW:
			return true
		}
	}
	return false
}

// interruptsDisabled implements the §VI-D window: interrupts are deferred
// while a USL that has initiated its validation/exposure has not yet
// reached the ROB head (on schemes that defer interrupts at all).
func (c *Core) interruptsDisabled() bool {
	if !c.sch.DefersInterrupts {
		return false
	}
	for i := 0; i < c.lqCnt; i++ {
		e := c.lqAt(i)
		// Disabled from validation/exposure initiation until the USL
		// reaches the ROB head (where interrupts re-enable).
		if e.valid && e.isUSL && e.valExpIssued && c.robLogical(e.robIdx) > 0 {
			return true
		}
	}
	return false
}
