package core

import (
	"invisispec/internal/isa"
	"invisispec/internal/memsys"
)

// instsPerLine returns how many instructions one cache line holds.
func (c *Core) instsPerLine() int { return c.cfg.LineSize / InstBytes }

// iaddrOf returns the I-cache byte address of an instruction index. A
// negative pc (a ret or indirect jump through a garbage register) decodes
// as a halt like any other out-of-range pc; it is clamped so the fetch
// request cannot wrap to a bogus address outside the instruction region.
func iaddrOf(pc int) uint64 {
	if pc < 0 {
		pc = 0
	}
	return IBase + uint64(pc)*InstBytes
}

// fetch requests the instruction line at the current PC when the front end
// is ready for more work.
func (c *Core) fetch() {
	if c.fetchStalled || c.fetchInFlight || c.haltSeen || c.now < c.fetchResumeAt {
		return
	}
	if len(c.fetchBuf) >= 2*c.cfg.FetchWidth {
		return
	}
	// Stop fetching past a halt already in the buffer.
	if c.haltFetched() {
		return
	}
	tok := c.token()
	c.fetchToken = tok
	typ := memsys.IFetch
	if c.cfg.ProtectICache && c.sch.UsesInvisibleLoads() {
		// Invisible speculative fetch (footnote 2): the line becomes
		// visible only when an instruction from it retires.
		typ = memsys.IFetchSpec
	}
	req := memsys.Request{Type: typ, Core: c.id, Addr: iaddrOf(c.pc), Token: tok}
	if c.submit(req) {
		c.fetchInFlight = true
		c.st.Fetched++ // line fetches, not instructions
	}
}

// haltFetched reports whether the fetch buffer holds a halt.
func (c *Core) haltFetched() bool {
	for i := range c.fetchBuf {
		if c.fetchBuf[i].inst.Op == isa.OpHalt {
			return true
		}
	}
	return false
}

// fetchBufLimit is the most instructions the fetch buffer holds: fetch
// requests a line only below half of it, and ifetchDone stops decoding
// once the buffer is full.
func fetchBufLimit(fetchWidth int) int { return 4 * fetchWidth }

// pushFetched appends a zeroed entry to the fetch buffer and returns it for
// decode to fill in. The buffer is a window into fetchMem that dispatch
// advances from the front; when the window reaches the end of the array,
// its entries move back to the start instead of append reallocating.
func (c *Core) pushFetched() *fetchedInst {
	if n := len(c.fetchBuf); n == cap(c.fetchBuf) && n < len(c.fetchMem) {
		c.fetchBuf = c.fetchMem[:copy(c.fetchMem, c.fetchBuf)]
	}
	c.fetchBuf = append(c.fetchBuf, fetchedInst{})
	return &c.fetchBuf[len(c.fetchBuf)-1]
}

// exposeILine makes a retired instruction's line visible under
// ProtectICache: the first retirement from a line issues a normal
// (installing) fetch for it.
func (c *Core) exposeILine(pc int) {
	if !c.cfg.ProtectICache || !c.sch.UsesInvisibleLoads() {
		return
	}
	line := iaddrOf(pc) >> 6
	slot := line % uint64(len(c.iExposeFilter))
	if c.iExposeFilter[slot] == line {
		return
	}
	req := memsys.Request{Type: memsys.IFetch, Core: c.id, Addr: iaddrOf(pc), Token: 0}
	if c.submit(req) {
		c.iExposeFilter[slot] = line
	}
}

// ifetchDone decodes the delivered instruction line into the fetch buffer,
// predicting control flow along the way. Decode stops at the end of the
// line, at a predicted-taken branch leaving it, at a halt, or at an
// unpredictable indirect target (BTB miss).
func (c *Core) ifetchDone(r memsys.Response) {
	if r.Token != c.fetchToken || !c.fetchInFlight {
		return // stale response from before a squash
	}
	c.fetchInFlight = false
	per := c.instsPerLine()
	// Floor-align the line start: Go's % truncates toward zero, which for a
	// negative pc would put lineStart above pc and decode nothing, wedging
	// the front end in a refetch loop. With floor alignment a negative pc
	// falls inside its (virtual) line and At() decodes it as a halt, matching
	// the golden model.
	lineStart := c.pc - ((c.pc%per)+per)%per
	for c.pc >= lineStart && c.pc < lineStart+per {
		in := c.prog.At(c.pc)
		fi := c.pushFetched()
		fi.pc, fi.inst, fi.blockStart = c.pc, in, c.isBlockStart(c.pc)
		next := c.pc + 1
		switch {
		case in.Op.IsCondBranch():
			fi.hasSnap = true
			fi.snap = c.bp.Snapshot()
			fi.predTaken = c.bp.PredictCond(c.pc)
			fi.predTarget = in.Target
			if fi.predTaken {
				next = in.Target
			}
		case in.Op == isa.OpJmp:
			fi.predTaken, fi.predTarget = true, in.Target
			next = in.Target
		case in.Op == isa.OpCall:
			fi.hasSnap = true
			fi.snap = c.bp.Snapshot()
			fi.predTaken, fi.predTarget = true, in.Target
			c.bp.PushRAS(c.pc + 1)
			next = in.Target
		case in.Op == isa.OpRet:
			fi.hasSnap = true
			fi.snap = c.bp.Snapshot()
			fi.predTaken = true
			fi.predTarget = c.bp.PopRAS()
			next = fi.predTarget
		case in.Op == isa.OpJmpI:
			fi.hasSnap = true
			fi.snap = c.bp.Snapshot()
			tgt, ok := c.bp.PredictIndirect(c.pc)
			if !ok {
				// BTB miss: fetch stalls until the jump resolves.
				fi.predTarget = -1
				fi.btbMiss = true
				c.fetchStalled = true
				return
			}
			fi.predTaken, fi.predTarget = true, tgt
			next = tgt
		}
		c.pc = next
		if in.Op == isa.OpHalt {
			return
		}
		if in.Op.IsBranch() && (next < lineStart || next >= lineStart+per) {
			return // redirected out of this line
		}
		if len(c.fetchBuf) >= fetchBufLimit(c.cfg.FetchWidth) {
			return
		}
	}
}
