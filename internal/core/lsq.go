package core

import (
	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/memsys"
	"invisispec/internal/stats"
)

// lqEntry is one load-queue slot; its index doubles as the Speculative
// Buffer slot (1:1 mapping, Figure 3) and the LLC-SB index.
type lqEntry struct {
	valid    bool
	seq      uint64
	robIdx   int
	pc       int
	size     uint8
	priv     bool
	prefetch bool

	addr      uint64
	addrReady bool
	safeAnnot bool // statically proven safe (isa.Inst.Safe)

	// Translation.
	translated   bool
	walking      bool
	walkDoneAt   uint64
	tlbDeferred  bool // IS: miss deferred to the visibility point (§VI-E3)
	tlbTouchOwed bool // IS: hit; replacement update owed at visibility

	// Progress.
	issued       bool
	performed    bool
	lineCaptured bool
	value        uint64

	// Store forwarding.
	fwdFromSeq      uint64 // seq of the store that forwarded data (0 = none)
	stallUntilStore uint64 // seq of an overlapping store we must wait out

	// SB reuse (§V-E).
	waitingReuse bool
	reused       bool // line obtained from an older USL's SB entry
	waitedOn     bool // a younger USL has waited to reuse this entry's line
	reuseFromIdx int
	reuseFromSeq uint64

	reqToken    uint64
	valExpToken uint64

	// InvisiSpec state bits (Figure 3): N = safe (not a USL), otherwise the
	// E/V/C progression is needV + valExpIssued/valExpDone.
	isUSL        bool
	needV        bool
	valExpIssued bool
	valExpDone   bool

	// Speculative Buffer line (§VI-A1).
	sbData   [isa.LineBytes]byte
	readMask uint64 // bytes the load consumed (Address Mask)
	fwdMask  uint64 // bytes obtained from the store queue / write buffer
}

func (e *lqEntry) lineAddr() uint64 { return e.addr &^ (isa.LineBytes - 1) }

// sqEntry is one store-queue slot.
type sqEntry struct {
	valid     bool
	seq       uint64
	robIdx    int
	addr      uint64
	addrReady bool
	safeAnnot bool // statically proven safe (isa.Inst.Safe)
	size      uint8
	data      uint64
	dataReady bool
}

// wbEntry is one write-buffer slot (a retired store awaiting performance).
type wbEntry struct {
	addr     uint64
	size     uint8
	data     uint64
	token    uint64
	inflight bool
	done     bool
}

func (c *Core) allocLQ(seq uint64, robIdx int, in isa.Inst) int {
	phys := ringAdd(c.lqHead, c.lqCnt, len(c.lq))
	c.lqCnt++
	// Zeroed, then filled in place, as insertEntry fills a ROB entry.
	e := &c.lq[phys]
	*e = lqEntry{}
	e.valid, e.seq, e.robIdx, e.pc = true, seq, robIdx, c.rob[robIdx].pc
	e.size, e.priv, e.safeAnnot, e.prefetch = in.Size, in.Priv, in.Safe, in.Op == isa.OpPrefetch
	if e.prefetch {
		e.size = 1
	}
	return phys
}

func (c *Core) allocSQ(seq uint64, robIdx int, in isa.Inst) int {
	phys := ringAdd(c.sqHead, c.sqCnt, len(c.sq))
	c.sqCnt++
	c.sq[phys] = sqEntry{valid: true, seq: seq, robIdx: robIdx, size: in.Size}
	return phys
}

func (c *Core) lqAt(i int) *lqEntry { return &c.lq[ringAdd(c.lqHead, i, len(c.lq))] }
func (c *Core) lqPhys(i int) int    { return ringAdd(c.lqHead, i, len(c.lq)) }
func (c *Core) sqAt(i int) *sqEntry { return &c.sq[ringAdd(c.sqHead, i, len(c.sq))] }

// lqLogical returns the logical position of a physical LQ slot.
func (c *Core) lqLogical(phys int) int {
	l := phys - c.lqHead
	if l < 0 {
		l += len(c.lq)
	}
	return l
}

func overlaps(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}

func contains(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
	return a1 <= a2 && a2+uint64(s2) <= a1+uint64(s1)
}

// memStep advances the loads through translation, forwarding, issue and SB
// reuse, oldest first, and then (for InvisiSpec) visibility; it also
// handles atomics at the ROB head. It visits only the entries in the work
// mask, reading the mask afresh at each step: an entry that copies a
// reused line wakes the younger entries waiting to copy it in turn, and
// they act in the same pass.
func (c *Core) memStep() {
	for _, span := range [2][2]int{{c.lqHead, len(c.lq)}, {0, c.lqHead}} {
		end := span[1]
		for i := nextBit(c.lqWork, span[0], end); i < end; i = nextBit(c.lqWork, i+1, end) {
			c.lqStep(i, &c.lq[i])
			if !c.lqCanAct(&c.lq[i]) {
				clearBit(c.lqWork, i)
			}
		}
	}
	c.invisiStep()
	c.rmwStep()
	c.flushStep()
}

// lqStep advances the load in LQ slot phys as far as it can go this cycle.
func (c *Core) lqStep(phys int, e *lqEntry) {
	if !e.translated {
		c.translateStep(e)
		if !e.translated {
			return
		}
	}
	if e.waitingReuse {
		c.reuseStep(e)
		return
	}
	if e.needsIssue() {
		c.tryIssueLoad(phys, e)
	}
}

// needsIssue reports whether the translated load e still has to go to
// memory. A USL that performed via store forwarding (or whose Spec-GetS
// bounced) still needs its line in the SB before it can validate or
// expose.
func (e *lqEntry) needsIssue() bool {
	return !e.issued && (!e.performed || e.isUSL && !e.lineCaptured)
}

// lqCanAct reports whether memStep can act on e: its address is ready, it
// is not a performed safe load, and it still has to translate, to issue,
// or to take up a reuse its source has settled (the source's line landed
// or the source left the LQ). A reuse waiter polls nothing; the events
// that settle its source set its work bit.
func (c *Core) lqCanAct(e *lqEntry) bool {
	switch {
	case !e.addrReady || e.performed && !e.isUSL:
		return false
	case !e.translated:
		return true
	case e.waitingReuse:
		src := &c.lq[e.reuseFromIdx]
		return !src.valid || src.seq != e.reuseFromSeq || src.lineCaptured
	}
	return e.needsIssue()
}

// flushStep executes a clflush when it reaches the ROB head.
func (c *Core) flushStep() {
	if c.robCnt == 0 {
		return
	}
	e := c.robAt(0)
	if e.inst.Op != isa.OpFlush || e.st != stWaitMem {
		return
	}
	c.markActive()
	c.hier.FlushLine(e.src1Val + uint64(e.inst.Imm))
	c.complete(c.robHead)
}

// translateStep runs the D-TLB for a load. Conventional configurations
// access the TLB immediately (misses pay the walk); InvisiSpec probes
// without perturbing state and defers misses (and hit-replacement updates)
// to the point of visibility.
func (c *Core) translateStep(e *lqEntry) {
	if e.walking {
		if c.now >= e.walkDoneAt {
			c.markActive()
			e.walking = false
			e.translated = true
			if e.tlbDeferred {
				// The deferred walk ran at visibility: fill the TLB now and
				// continue as a safe access.
				c.dtlb.Insert(e.addr)
				e.tlbDeferred = false
			}
		}
		return
	}
	invisible := c.sch.InvisibleLoads() && c.cfg.DelayTLBMiss && !c.loadSafeNow(e)
	if !invisible {
		c.markActive()
		extra := c.dtlb.Access(e.addr)
		if extra > 0 {
			c.st.TLBMisses++
			e.walking = true
			e.walkDoneAt = c.now + uint64(extra)
			return
		}
		c.st.TLBHits++
		e.translated = true
		return
	}
	// Invisible translation: probe only.
	if c.dtlb.Probe(e.addr) {
		c.markActive()
		c.st.TLBHits++
		e.tlbTouchOwed = true
		e.translated = true
		return
	}
	// Miss: the walk itself would be visible; defer to visibility (§VI-E3).
	if !e.tlbDeferred {
		c.markActive()
		e.tlbDeferred = true
		c.st.TLBMisses++
		c.st.TLBWalksDelayed++
	}
	if c.visible(c.robLogical(e.robIdx)) {
		c.markActive()
		e.walking = true
		e.walkDoneAt = c.now + uint64(c.dtlb.WalkLatency())
	}
}

// tryIssueLoad resolves forwarding and sends the load in LQ slot phys to
// the memory system.
func (c *Core) tryIssueLoad(phys int, e *lqEntry) {
	// A performed USL re-issuing (after a bounce, or forwarded from a
	// store) only needs its line: skip the forwarding scan so the already
	// consumed value can never change.
	if e.isUSL && e.performed && !e.lineCaptured {
		c.issueUSL(phys, e)
		return
	}
	// Search the store queue (youngest older store first), then the write
	// buffer, for forwarding or ordering hazards.
	if e.stallUntilStore != 0 {
		if c.storePending(e.stallUntilStore) {
			return
		}
		e.stallUntilStore = 0
	}
	// From here on the load forwards, records a hazard or is submitted.
	c.markActive()
	for j := c.sqCnt - 1; j >= 0; j-- {
		s := c.sqAt(j)
		if s.seq >= e.seq {
			continue
		}
		if !s.addrReady {
			// Memory-dependence speculation: proceed; storeAliasSquash
			// catches a violation when the address resolves.
			continue
		}
		if !overlaps(s.addr, s.size, e.addr, e.size) {
			continue
		}
		if canForward(s.addr, s.size, e) && s.dataReady {
			c.forwardFromStore(phys, e, s.addr, s.size, s.data, s.seq)
			return
		}
		// Partial overlap (or data not ready): wait for the store to drain.
		e.stallUntilStore = s.seq
		return
	}
	for j := len(c.wb) - 1; j >= 0; j-- {
		w := &c.wb[j]
		if w.done || !overlaps(w.addr, w.size, e.addr, e.size) {
			continue
		}
		if canForward(w.addr, w.size, e) {
			c.forwardFromStore(phys, e, w.addr, w.size, w.data, w.token)
			return
		}
		e.stallUntilStore = w.token
		return
	}
	// No forwarding: go to memory.
	if c.sch.InvisibleLoads() && !c.loadSafeNow(e) {
		c.issueUSL(phys, e)
		return
	}
	tok := c.token()
	req := memsys.Request{Type: memsys.ReadShared, Core: c.id, Addr: e.addr, Token: tok, LQIdx: phys}
	if c.submit(req) {
		e.issued = true
		e.isUSL = false
		e.reqToken = tok
	}
}

// canForward reports whether an older store at (saddr, ssize) may forward to
// load e: the store must fully cover the load's bytes, and the load must sit
// inside a single 64-byte line, because forwardFromStore records the bytes in
// the entry's per-line SB snapshot and forward mask. Naturally aligned
// accesses always satisfy the line condition; it is a defensive guard so a
// straddling load (only possible through a decoder bug) stalls and drains
// through memory instead of forwarding stale or out-of-range bytes.
func canForward(saddr uint64, ssize uint8, e *lqEntry) bool {
	if !contains(saddr, ssize, e.addr, e.size) {
		return false
	}
	return e.addr-e.lineAddr()+uint64(e.size) <= isa.LineBytes
}

// storePending reports whether the store with the given seq (SQ) or token
// (WB) has not yet performed.
func (c *Core) storePending(id uint64) bool {
	for j := 0; j < c.sqCnt; j++ {
		if s := c.sqAt(j); s.valid && s.seq == id {
			return true
		}
	}
	for j := range c.wb {
		if c.wb[j].token == id && !c.wb[j].done {
			return true
		}
	}
	return false
}

// forwardFromStore satisfies the load in LQ slot phys from an older
// store's data. For a USL the bytes also enter the SB entry under the
// forward mask, and a Spec-GetS is still issued for the rest of the line
// (§VI-A2).
func (c *Core) forwardFromStore(phys int, e *lqEntry, saddr uint64, ssize uint8, sdata uint64, sid uint64) {
	off := e.addr - saddr
	val := (sdata >> (8 * off))
	if e.size < 8 {
		val &= (1 << (8 * uint(e.size))) - 1
	}
	e.fwdFromSeq = sid
	lineOff := e.addr - e.lineAddr()
	for b := uint64(0); b < uint64(e.size); b++ {
		e.sbData[lineOff+b] = byte(val >> (8 * b))
		e.fwdMask |= 1 << (lineOff + b)
		e.readMask |= 1 << (lineOff + b)
	}
	e.value = val
	if c.sch.InvisibleLoads() {
		// Perform now; the Spec-GetS still fetches the line into the SB but
		// must not overwrite the forwarded bytes.
		e.isUSL = true
		c.markPerformed(e)
		if !e.issued {
			c.issueUSL(phys, e)
		}
		return
	}
	c.markPerformed(e)
}

// markPerformed records data arrival: the register value is available and
// the ROB entry completes (dependents may consume it speculatively).
func (c *Core) markPerformed(e *lqEntry) {
	if e.performed {
		return
	}
	e.performed = true
	if !e.prefetch {
		c.rob[e.robIdx].destVal = e.value
	}
	c.complete(e.robIdx)
	if e.isUSL {
		c.decideValidationOrExposure(e)
	}
}

// loadValue extracts the load's bytes from its SB line snapshot.
func (e *lqEntry) loadValue() uint64 {
	off := e.addr - e.lineAddr()
	var v uint64
	for b := uint64(0); b < uint64(e.size); b++ {
		v |= uint64(e.sbData[off+b]) << (8 * b)
	}
	return v
}

// captureLine snapshots the functional memory line into the SB entry,
// keeping any store-forwarded bytes, and marks the bytes the load consumed.
func (c *Core) captureLine(e *lqEntry) {
	base := e.lineAddr()
	if e.fwdMask == 0 {
		c.mem.CopyLine(&e.sbData, base)
	} else {
		var line [isa.LineBytes]byte
		c.mem.CopyLine(&line, base)
		for b := range line {
			if e.fwdMask&(1<<b) == 0 {
				e.sbData[b] = line[b]
			}
		}
	}
	off := e.addr - base
	for b := uint64(0); b < uint64(e.size); b++ {
		e.readMask |= 1 << (off + b)
	}
	e.lineCaptured = true
}

// loadDataArrived handles ReadShared and SpecRead responses.
func (c *Core) loadDataArrived(r memsys.Response, spec bool) {
	e := &c.lq[r.LQIdx]
	if !e.valid || !e.issued || e.reqToken != r.Token {
		return // squashed while in flight
	}
	if r.Bounced {
		// Spec-GetS raced an ownership transfer: retry, from this cycle's
		// memStep on.
		e.issued = false
		e.reqToken = 0
		setBit(c.lqWork, c.rob[e.robIdx].lqIdx)
		return
	}
	if spec {
		c.captureLine(e)
		if e.fwdFromSeq == 0 {
			e.value = e.loadValue()
		}
		c.markPerformed(e)
		c.wakeReuseWaiters(e)
		return
	}
	// Safe load: value comes from functional memory now; the line is in L1.
	e.lineCaptured = true
	e.value = c.mem.Read(e.addr, e.size)
	off := e.addr - e.lineAddr()
	for b := uint64(0); b < uint64(e.size); b++ {
		e.readMask |= 1 << (off + b)
	}
	c.markPerformed(e)
	c.wakeReuse(e)
}

// storeAliasSquash implements speculative-store-bypass detection: when a
// store's address resolves, younger loads that already performed from an
// overlapping address without forwarding from this store read stale data
// and must be squashed (Table I: "address alias between a load and an
// earlier store"). Returns true if a squash happened.
func (c *Core) storeAliasSquash(s *sqEntry) bool {
	for i := 0; i < c.lqCnt; i++ {
		e := c.lqAt(i)
		if !e.valid || e.seq <= s.seq || !(e.performed || e.issued) {
			continue
		}
		if e.fwdFromSeq == s.seq {
			continue
		}
		// Issued-but-unperformed loads are squashed too: their in-flight
		// read raced the store and would return data not reflecting it.
		if overlaps(s.addr, s.size, e.addr, e.size) {
			c.squashLoad(e, stats.SquashMemDep)
			return true
		}
	}
	return false
}

// squashLoad squashes a load and everything younger, re-fetching from the
// load's own PC.
func (c *Core) squashLoad(e *lqEntry, reason stats.SquashReason) {
	c.squashFromLogical(c.robLogical(e.robIdx), reason, e.pc, true)
}

// retireStoreToWB moves a retiring store into the write buffer. It reports
// whether space was available.
func (c *Core) retireStoreToWB(s *sqEntry) bool {
	if len(c.wb) >= c.cfg.WBEntries {
		return false
	}
	c.wb = append(c.wb, wbEntry{addr: s.addr, size: s.size, data: s.data, token: c.token()})
	return true
}

// drainWriteBuffer issues GetX transactions for buffered stores. TSO drains
// strictly in order, one at a time (FIFO store performance); RC overlaps
// several in-flight drains (still issued in order; releases are ordered by
// the fence logic).
func (c *Core) drainWriteBuffer() {
	maxInflight := 1
	if c.run.Consistency == config.RC {
		maxInflight = 8
	}
	inflight := 0
	for i := range c.wb {
		w := &c.wb[i]
		if w.done {
			continue
		}
		if w.inflight {
			inflight++
			continue
		}
		if inflight >= maxInflight {
			break
		}
		req := memsys.Request{Type: memsys.ReadExcl, Core: c.id, Addr: w.addr, Token: w.token}
		if !c.submit(req) {
			break
		}
		w.inflight = true
		inflight++
		if c.run.Consistency == config.TSO {
			break
		}
	}
}

// exclusiveArrived completes a store drain or an atomic.
func (c *Core) exclusiveArrived(r memsys.Response) {
	for i := range c.wb {
		w := &c.wb[i]
		if w.token == r.Token && w.inflight && !w.done {
			// The store performs: it becomes globally visible.
			c.mem.Write(w.addr, w.size, w.data)
			w.done = true
			w.inflight = false
			c.popPerformedStores()
			return
		}
	}
	// Otherwise an RMW at the ROB head.
	if c.robCnt > 0 {
		e := c.robAt(0)
		if e.inst.Op == isa.OpRMW && e.rmwIssued && e.seq == r.Token && e.st == stWaitMem {
			addr := isa.AlignAddr(e.src1Val, e.inst.Size)
			old := c.mem.Read(addr, e.inst.Size)
			c.mem.Write(addr, e.inst.Size, old+e.src2Val)
			e.destVal = old
			c.complete(c.robHead)
			c.closeBarrier(c.robHead)
		}
	}
}

// popPerformedStores releases completed write-buffer entries from the head.
// It copies the live entries down rather than re-slicing, so the buffer
// keeps its backing array and retireStoreToWB's append does not reallocate.
func (c *Core) popPerformedStores() {
	n := 0
	for n < len(c.wb) && c.wb[n].done {
		n++
	}
	if n > 0 {
		c.wb = c.wb[:copy(c.wb, c.wb[n:])]
	}
}

// rmwStep issues an atomic when it reaches the ROB head with an empty write
// buffer (atomics have fence semantics and execute non-speculatively,
// §VI-E2).
func (c *Core) rmwStep() {
	if c.robCnt == 0 {
		return
	}
	e := c.robAt(0)
	if e.inst.Op != isa.OpRMW || e.st != stWaitMem || e.rmwIssued {
		return
	}
	if len(c.wb) != 0 {
		return
	}
	req := memsys.Request{Type: memsys.ReadExcl, Core: c.id,
		Addr: isa.AlignAddr(e.src1Val, e.inst.Size), Token: e.seq}
	if c.submit(req) {
		e.rmwIssued = true
	}
}
