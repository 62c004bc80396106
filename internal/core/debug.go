package core

import (
	"fmt"
	"strings"
)

// DebugDump renders the core's in-flight state for diagnostics and tests.
func DebugDump(c *Core) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pc=%d fetchBuf=%d inFlight=%v stalled=%v resumeAt=%d\n",
		c.pc, len(c.fetchBuf), c.fetchInFlight, c.fetchStalled, c.fetchResumeAt)
	for i := 0; i < c.robCnt; i++ {
		e := c.robAt(i)
		fmt.Fprintf(&b, "rob[%2d] seq=%d pc=%3d %-24s st=%d syn=%v fence=%v resolved=%v src1=%d src2=%d\n",
			i, e.seq, e.pc, e.inst.String(), e.st, e.synthetic, e.fenceDone, e.resolved, e.src1Rob, e.src2Rob)
	}
	for i := 0; i < c.lqCnt; i++ {
		e := c.lqAt(i)
		fmt.Fprintf(&b, "lq[%2d] seq=%d addr=%#x ready=%v trans=%v issued=%v perf=%v usl=%v needV=%v veIss=%v veDone=%v stall=%d reuse=%v\n",
			i, e.seq, e.addr, e.addrReady, e.translated, e.issued, e.performed,
			e.isUSL, e.needV, e.valExpIssued, e.valExpDone, e.stallUntilStore, e.waitingReuse)
	}
	for i := 0; i < c.sqCnt; i++ {
		s := c.sqAt(i)
		fmt.Fprintf(&b, "sq[%2d] seq=%d addr=%#x ready=%v data=%v\n", i, s.seq, s.addr, s.addrReady, s.dataReady)
	}
	fmt.Fprintf(&b, "ready=%v parked=%v executing=%v barriers=%v unresolved=%v openFences=%d lqWork=%v\n",
		maskSlots(c.ready), maskSlots(c.parked), c.executing, c.barriers, c.unresolved, c.openFences,
		maskSlots(c.lqWork))
	fmt.Fprintf(&b, "wb=%d epoch=%d\n", len(c.wb), c.epoch)
	if ls := c.lastSquash; ls.Happened {
		fmt.Fprintf(&b, "last squash: cycle=%d reason=%s flushed=%d redirect=%d\n",
			ls.Cycle, ls.Reason, ls.Flushed, ls.Redirect)
	}
	return b.String()
}

// maskSlots lists the slots set in a ROB or LQ slot mask, lowest first.
func maskSlots(m []uint64) []int {
	var slots []int
	for i := range len(m) * 64 {
		if hasBit(m, i) {
			slots = append(slots, i)
		}
	}
	return slots
}
