package invariant

import (
	"fmt"

	"invisispec/internal/coherence"
)

// Standard returns the default checker set, in the order they run:
//
//	core-structural      ROB/LQ/SQ/WB occupancy bounds, circular-window
//	                     validity, sequence monotonicity, ROB<->LQ/SQ
//	                     cross-links, and write-buffer FIFO order (TSO:
//	                     one drain in flight, eager head popping).
//	mshr-conservation    per-L1 MSHR allocate==release accounting, and no
//	                     live MSHR's line in that L1 except the Shared copy
//	                     a GetX upgrade starts from (a fill installs its
//	                     line and frees its entry in one step, so a leaked
//	                     entry shows up at the next check).
//	event-conservation   hierarchy events scheduled == run + pending.
//	noc-conservation     mesh messages injected == delivered + in-flight.
//	coherence-swmr       single-writer/multiple-reader: at most one core
//	                     holds a line in E/M, and an owned line has no other
//	                     valid copy anywhere.
//	coherence-directory  every (untransitioning) L1 copy is registered in
//	                     the directory, and the inclusive LLC holds it.
//	invisispec-exclusivity
//	                     a line valid in a core's LLC-SB is resident in
//	                     neither the LLC nor that core's L1 (otherwise the
//	                     SB could serve stale data to a validation).
//
// Checks scan only L1-sized arrays and per-core side state — never the LLC
// banks — so a sweep is cheap enough to run every few thousand cycles.
func Standard() []Checker {
	return []Checker{
		{Name: "core-structural", Check: checkCoreStructural},
		{Name: "mshr-conservation", Check: checkMSHR},
		{Name: "event-conservation", Check: checkEvents},
		{Name: "noc-conservation", Check: checkNoC},
		{Name: "coherence-swmr", Check: checkSWMR},
		{Name: "coherence-directory", Check: checkDirectory},
		{Name: "invisispec-exclusivity", Check: checkLLCSBExclusive},
	}
}

func checkCoreStructural(t *Target) error {
	for _, c := range t.Cores {
		if err := c.StructuralCheck(); err != nil {
			return err
		}
	}
	return nil
}

func checkMSHR(t *Target) error {
	if errs := t.Hier.MSHRConsistency(); len(errs) > 0 {
		return fmt.Errorf("%s", errs[0])
	}
	return nil
}

func checkEvents(t *Target) error {
	sched, run, pending := t.Hier.EventAccounting()
	if sched != run+uint64(pending) {
		return fmt.Errorf("event conservation broken: scheduled=%d run=%d pending=%d",
			sched, run, pending)
	}
	return nil
}

func checkNoC(t *Target) error {
	inj, del, inflight := t.Hier.NoCAccounting()
	if inj != del+uint64(inflight) {
		return fmt.Errorf("NoC conservation broken: injected=%d delivered=%d inflight=%d",
			inj, del, inflight)
	}
	return nil
}

// l1copy is one core's valid L1D copy of a line.
type l1copy struct {
	core int
	st   coherence.State
}

// collectL1Copies builds the line -> copies map across every core's L1D.
// The map is L1-sized (at most cores x sets x ways entries).
func collectL1Copies(t *Target) map[uint64][]l1copy {
	copies := make(map[uint64][]l1copy)
	for i := range t.Cores {
		core := i
		t.Hier.ForEachL1DLine(core, func(ln uint64, st coherence.State) {
			copies[ln] = append(copies[ln], l1copy{core: core, st: st})
		})
	}
	return copies
}

// checkSWMR enforces single-writer/multiple-reader: a line held Exclusive or
// Modified by one core may have no other valid copy. Lines with an in-flight
// inclusive-LLC recall are exempt (the stale copy is already condemned; its
// invalidation event is scheduled), as are lines locked by a directory
// transaction (ownership legitimately in transit).
func checkSWMR(t *Target) error {
	for ln, cs := range collectL1Copies(t) {
		owners := 0
		for _, c := range cs {
			if c.st == coherence.Exclusive || c.st == coherence.Modified {
				owners++
			}
		}
		if owners == 0 || (owners == 1 && len(cs) == 1) {
			continue
		}
		if t.Hier.RecallPending(ln) || t.Hier.BankBusy(ln) {
			continue
		}
		return fmt.Errorf("SWMR broken for line %#x: %d owned copies among %d total %v",
			ln, owners, len(cs), describeCopies(cs))
	}
	return nil
}

// checkDirectory enforces that every L1D copy is (a) registered in the
// line's directory entry with the matching role and (b) backed by a resident
// LLC line (inclusivity). Both only hold when no transaction is mid-flight
// on the line, so busy and recall-pending lines are exempt.
func checkDirectory(t *Target) error {
	for ln, cs := range collectL1Copies(t) {
		if t.Hier.BankBusy(ln) || t.Hier.RecallPending(ln) {
			continue
		}
		present, dir := t.Hier.LLCLineDir(ln)
		if !present {
			return fmt.Errorf("inclusivity broken: line %#x cached in L1 %v but absent from LLC",
				ln, describeCopies(cs))
		}
		for _, c := range cs {
			switch c.st {
			case coherence.Exclusive, coherence.Modified:
				if dir.Owner != c.core {
					return fmt.Errorf(
						"directory broken: core%d holds line %#x in %v but directory owner is %d",
						c.core, ln, c.st, dir.Owner)
				}
			case coherence.Shared:
				if !dir.HasSharer(c.core) && dir.Owner != c.core {
					return fmt.Errorf(
						"directory broken: core%d holds line %#x Shared but is not registered (sharers=%#x owner=%d)",
						c.core, ln, dir.Sharers, dir.Owner)
				}
			default:
				return fmt.Errorf("core%d L1D line %#x in impossible state %v", c.core, ln, c.st)
			}
		}
	}
	return nil
}

// checkLLCSBExclusive enforces the InvisiSpec LLC-SB exclusivity invariant:
// a valid LLC-SB entry exists only for lines the Spec-GetS found absent from
// the LLC, and any later non-speculative fetch purges it before installing
// the line — so a line can never be valid in an LLC-SB and resident in the
// LLC (or, transitively through inclusion, in the owning core's L1) at once.
// A stale SB entry would let a validation hit data that memory has since
// changed.
func checkLLCSBExclusive(t *Target) error {
	if !t.Run.Machine.LLCSBEnabled {
		return nil
	}
	for i := range t.Cores {
		for _, ln := range t.Hier.LLCSBValidLines(i) {
			if t.Hier.BankBusy(ln) || t.Hier.RecallPending(ln) {
				continue
			}
			if present, _ := t.Hier.LLCLineDir(ln); present {
				return fmt.Errorf(
					"LLC-SB exclusivity broken: core%d LLC-SB holds line %#x which is resident in the LLC",
					i, ln)
			}
		}
	}
	return nil
}

func describeCopies(cs []l1copy) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprintf("core%d=%v", c.core, c.st)
	}
	return out
}
