package memsys

import (
	"fmt"
	"slices"
	"strings"

	"invisispec/internal/cache"
	"invisispec/internal/coherence"
)

// This file exposes read-only views of hierarchy state for tests and for
// the security-invariant checks (e.g. "a squashed USL leaves no trace in
// any cache, directory, or replacement state").

// L1State returns the MESI state of addr's line in the core's L1D
// (coherence.Invalid if absent).
func (h *Hierarchy) L1State(core int, addr uint64) coherence.State {
	line := h.l1d[core].arr.Lookup(h.LineOf(addr))
	if line == nil {
		return coherence.Invalid
	}
	return coherence.State(line.State)
}

// L1LRUOrder returns the MRU-to-LRU line numbers of the L1D set containing
// addr.
func (h *Hierarchy) L1LRUOrder(core int, addr uint64) []uint64 {
	a := h.l1d[core].arr
	return a.LRUOrder(a.SetOf(h.LineOf(addr)))
}

// LLCPresent reports whether addr's line is resident in the LLC.
func (h *Hierarchy) LLCPresent(addr uint64) bool {
	ln := h.LineOf(addr)
	return h.bank[h.homeBank(ln)].arr.Lookup(ln) != nil
}

// LLCDir returns the directory entry for addr's line.
func (h *Hierarchy) LLCDir(addr uint64) coherence.DirEntry {
	ln := h.LineOf(addr)
	return dirEntryOf(h.bank[h.homeBank(ln)].arr.Lookup(ln))
}

// LLCLRUOrder returns the MRU-to-LRU order of the LLC set containing addr
// in its home bank.
func (h *Hierarchy) LLCLRUOrder(addr uint64) []uint64 {
	ln := h.LineOf(addr)
	a := h.bank[h.homeBank(ln)].arr
	return a.LRUOrder(a.SetOf(ln))
}

// LLCSBEntry returns the contents of a core's LLC-SB entry.
func (h *Hierarchy) LLCSBEntry(core, idx int) (lineNum uint64, epoch uint64, valid bool) {
	e := h.sb[core].entries[idx]
	return e.lineNum, e.epoch, e.valid
}

// FlushLine implements a clflush: the line containing addr is invalidated
// from every L1, written back from the LLC if dirty, dropped from the LLC,
// and purged from every LLC-SB. It is an architectural (non-speculative)
// operation; timing is charged by the core. A transaction that holds the
// line at its home bank has already committed its directory update and
// will still fill an L1, so the flush is ordered after it as well: the
// bank applies it again when it releases the line.
func (h *Hierarchy) FlushLine(addr uint64) {
	ln := h.LineOf(addr)
	if b := h.bank[h.homeBank(ln)]; b.busy[ln] && !slices.Contains(b.reflush, ln) {
		b.reflush = append(b.reflush, ln)
	}
	h.flushLine(ln)
}

// flushLine applies a clflush of line ln at once.
func (h *Hierarchy) flushLine(ln uint64) {
	for c := range h.l1d {
		h.invalidateL1(c, ln)
		h.l1i[c].arr.Invalidate(ln)
	}
	b := h.bank[h.homeBank(ln)]
	if line := b.arr.Lookup(ln); line != nil {
		// An owned line may have been silently dirtied in the owner's L1;
		// like a recall, the flush must assume it needs writing back.
		if line.Dirty || line.Owner != coherence.NoOwner {
			h.mesh.dram.write(h.now, h.cfg.DataMsgBytes)
		}
		b.arr.Invalidate(ln)
	}
	for _, sb := range h.sb {
		sb.invalidateLine(ln)
	}
}

// L1IPresent reports whether addr's line is in the core's L1I.
func (h *Hierarchy) L1IPresent(core int, addr uint64) bool {
	return h.l1i[core].arr.Lookup(h.LineOf(addr)) != nil
}

// ---------------------------------------------------------------------------
// Hardening-layer introspection (internal/invariant). Everything below is
// read-only except the two Inject* mutation hooks at the bottom, which exist
// solely for the invariant package's mutation self-test.

// ForEachL1DLine calls fn for every valid line in the core's L1D with its
// line number and MESI state.
func (h *Hierarchy) ForEachL1DLine(core int, fn func(lineNum uint64, st coherence.State)) {
	h.l1d[core].arr.ForEach(func(l *cache.Line) {
		fn(l.LineNum, coherence.State(l.State))
	})
}

// LLCLineDir looks a line up in its home bank and returns whether it is
// resident plus its directory entry.
func (h *Hierarchy) LLCLineDir(lineNum uint64) (present bool, dir coherence.DirEntry) {
	line := h.bank[h.homeBank(lineNum)].arr.Lookup(lineNum)
	return line != nil, dirEntryOf(line)
}

// BankBusy reports whether a directory transaction currently holds the line
// (invariant checks must exempt such lines: their L1/LLC/directory states are
// legitimately in transit).
func (h *Hierarchy) BankBusy(lineNum uint64) bool {
	return h.bank[h.homeBank(lineNum)].busy[lineNum]
}

// RecallPending reports whether an inclusive-LLC recall invalidation is still
// in flight for the line (the LLC already dropped it; L1 copies linger until
// their invalidation events run).
func (h *Hierarchy) RecallPending(lineNum uint64) bool {
	return h.recallPending[lineNum] > 0
}

// EventAccounting returns the hierarchy's event-conservation counters;
// scheduled == run + pending must always hold.
func (h *Hierarchy) EventAccounting() (scheduled, run uint64, pending int) {
	return h.eventsScheduled, h.eventsRun, len(h.events)
}

// NoCAccounting returns the mesh's message-conservation counters at the
// hierarchy's current cycle; injected == delivered + inflight must hold.
func (h *Hierarchy) NoCAccounting() (injected, delivered uint64, inflight int) {
	return h.noc.Accounting(h.now)
}

// MSHRAccounting returns one core's L1D MSHR conservation counters;
// allocs - frees == inflight and inflight <= cap must hold.
func (h *Hierarchy) MSHRAccounting(core int) (allocs, frees uint64, inflight, capacity int) {
	m := h.l1d[core].mshr
	allocs, frees = m.Accounting()
	return allocs, frees, m.InFlight(), m.Cap()
}

// MSHRConsistency cross-checks each core's L1D and L1I MSHR files against
// their side-table maps (mshrKind/mshrMeta) and conservation counters, and
// returns a description of every inconsistency found. Only the hierarchy can
// perform this audit: the side tables are internal.
func (h *Hierarchy) MSHRConsistency() []string {
	var errs []string
	audit := func(c *l1, name string) {
		m := c.mshr
		allocs, frees := m.Accounting()
		inflight := m.InFlight()
		if int(allocs-frees) != inflight {
			errs = append(errs, fmt.Sprintf(
				"core%d %s: MSHR conservation broken: allocs=%d frees=%d but %d in flight",
				c.core, name, allocs, frees, inflight))
		}
		if inflight > m.Cap() {
			errs = append(errs, fmt.Sprintf(
				"core%d %s: MSHR occupancy %d exceeds capacity %d", c.core, name, inflight, m.Cap()))
		}
		live := m.Lines()
		if len(c.mshrKind) != len(live) || len(c.mshrMeta) != len(live) {
			errs = append(errs, fmt.Sprintf(
				"core%d %s: MSHR side tables out of sync: %d live entries, %d kinds, %d metas",
				c.core, name, len(live), len(c.mshrKind), len(c.mshrMeta)))
		}
		for _, ln := range live {
			if _, ok := c.mshrKind[ln]; !ok {
				errs = append(errs, fmt.Sprintf(
					"core%d %s: live MSHR for line %#x has no request kind (leaked entry?)",
					c.core, name, ln))
			}
			if _, ok := c.mshrMeta[ln]; !ok {
				errs = append(errs, fmt.Sprintf(
					"core%d %s: live MSHR for line %#x has no waiter list", c.core, name, ln))
			}
		}
	}
	for i := range h.l1d {
		audit(h.l1d[i], "L1D")
		audit(h.l1i[i], "L1I")
	}
	return errs
}

// LLCSBValidLines returns the line numbers currently valid in a core's
// LLC-SB.
func (h *Hierarchy) LLCSBValidLines(core int) []uint64 {
	var out []uint64
	for i := range h.sb[core].entries {
		if e := &h.sb[core].entries[i]; e.valid {
			out = append(out, e.lineNum)
		}
	}
	return out
}

// DebugSummary renders a compact per-core hierarchy snapshot for deadlock
// and invariant-violation dumps.
func (h *Hierarchy) DebugSummary() string {
	var b strings.Builder
	sched, run, pending := h.EventAccounting()
	fmt.Fprintf(&b, "hierarchy: cycle=%d events sched=%d run=%d pending=%d\n",
		h.now, sched, run, pending)
	inj, del, inflight := h.NoCAccounting()
	fmt.Fprintf(&b, "noc: injected=%d delivered=%d inflight=%d\n", inj, del, inflight)
	for i := range h.l1d {
		allocs, frees, mf, capn := h.MSHRAccounting(i)
		fmt.Fprintf(&b, "core%d: l1d lines=%d mshr=%d/%d (allocs=%d frees=%d) llcsb=%d busyBankLines=%d\n",
			i, h.l1d[i].arr.Count(), mf, capn, allocs, frees,
			len(h.LLCSBValidLines(i)), len(h.bank[i].busy))
	}
	return b.String()
}

// InjectMSHRLeak allocates an L1D MSHR entry for a bogus line without any of
// the side-table bookkeeping, simulating a leak. It exists ONLY for the
// mutation self-test in internal/invariant; nothing in normal operation calls
// it.
func (h *Hierarchy) InjectMSHRLeak(core int) {
	const bogusLine = ^uint64(0) >> 1
	h.l1d[core].mshr.Alloc(bogusLine)
}

// InjectDuplicateM installs addr's line as Modified in both cores' L1Ds
// without telling the directory, seeding a single-writer violation. It exists
// ONLY for the mutation self-test in internal/invariant.
func (h *Hierarchy) InjectDuplicateM(core1, core2 int, addr uint64) {
	ln := h.LineOf(addr)
	for _, c := range []int{core1, core2} {
		arr := h.l1d[c].arr
		arr.Insert(ln)
		line := arr.Lookup(ln)
		line.State = uint8(coherence.Modified)
		line.Dirty = true
	}
}
