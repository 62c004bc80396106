package memsys

import (
	"fmt"
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
	b := h.bank[h.homeBank(ln)]
	if hd, held := b.held[ln]; held {
		hd.reflush = true
		b.held[ln] = hd
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
			h.dramWrite(h.now)
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
	_, held := h.bank[h.homeBank(lineNum)].held[lineNum]
	return held
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
	c := h.l1d[core]
	return c.allocs, c.frees, len(c.mshrs), cap(c.mshrs)
}

// MSHRConsistency audits each core's L1D and L1I MSHRs and returns a
// description of every violation found. Every allocation must be paired
// with exactly one free (allocs - frees == live). And because a fill
// installs its line and frees the line's MSHR in one step, no live MSHR's
// line is in that L1 at a cycle boundary, except the Shared copy a GetX
// upgrade starts from: a fill that leaves its entry live breaks this at
// once, where the counters alone would not notice.
func (h *Hierarchy) MSHRConsistency() []string {
	var errs []string
	audit := func(c *l1, name string) {
		if live := len(c.mshrs); int(c.allocs-c.frees) != live {
			errs = append(errs, fmt.Sprintf(
				"core%d %s: MSHR conservation broken: allocs=%d frees=%d but %d in flight",
				c.core, name, c.allocs, c.frees, live))
		}
		for _, m := range c.mshrs {
			line := c.arr.Lookup(m.lineNum)
			if line == nil || m.kind == coherence.GetX && coherence.State(line.State) == coherence.Shared {
				continue
			}
			errs = append(errs, fmt.Sprintf(
				"core%d %s: live %v MSHR for line %#x, which the L1 holds in %v (a fill that left its entry live?)",
				c.core, name, m.kind, m.lineNum, coherence.State(line.State)))
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
			len(h.LLCSBValidLines(i)), len(h.bank[i].held))
	}
	return b.String()
}

// InjectMSHRLeak allocates an L1D MSHR entry for a line the core's L1D
// holds, as a fill that installs its line but leaves its entry live would.
// It exists ONLY for the mutation self-test in internal/invariant; nothing
// in normal operation calls it.
func (h *Hierarchy) InjectMSHRLeak(core int) {
	c := h.l1d[core]
	leaked := false
	c.arr.ForEach(func(l *cache.Line) {
		if !leaked && c.mshrOf(l.LineNum) < 0 {
			_, leaked = c.miss(l.LineNum, coherence.GetS)
		}
	})
	if !leaked {
		panic("memsys: InjectMSHRLeak found no L1D line to leak an MSHR for")
	}
}

// InjectDuplicateM installs addr's line as Modified in both cores' L1Ds
// without telling the directory, seeding a single-writer violation. It exists
// ONLY for the mutation self-test in internal/invariant.
func (h *Hierarchy) InjectDuplicateM(core1, core2 int, addr uint64) {
	ln := h.LineOf(addr)
	for _, c := range []int{core1, core2} {
		line, _, _ := h.l1d[c].arr.Insert(ln)
		line.State = uint8(coherence.Modified)
		line.Dirty = true
	}
}
