package core

import (
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/memsys"
	"invisispec/internal/stats"
)

// lqRig runs a program on a one-core machine, ticking the hierarchy and
// then the core each cycle, as the stepped kernel does. Between the two, a
// test may deliver a response of its own.
type lqRig struct {
	c    *Core
	hier *memsys.Hierarchy
	now  uint64
}

func newLQRig(t *testing.T, d config.Defense, prog *isa.Program) *lqRig {
	t.Helper()
	run := config.Run{Machine: config.Default(1), Defense: d, Consistency: config.TSO}
	st := stats.NewMachine(1)
	mem := isa.NewMemory()
	mem.LoadProgramImage(prog)
	hier := memsys.New(run.Machine, st)
	return &lqRig{c: New(0, run, prog, mem, hier, &st.Cores[0]), hier: hier}
}

// step advances one cycle; deliver, when non-nil, runs after the
// hierarchy's tick, where its callbacks land.
func (r *lqRig) step(deliver func()) {
	r.now++
	r.hier.Tick(r.now)
	if deliver != nil {
		deliver()
	}
	r.c.Tick(r.now)
}

// until steps until cond holds after a tick, failing after limit cycles.
func (r *lqRig) until(t *testing.T, what string, limit int, cond func() bool) {
	t.Helper()
	for i := 0; i < limit; i++ {
		r.step(nil)
		if cond() {
			return
		}
	}
	t.Fatalf("cycle %d: %s did not happen within %d cycles\n%s", r.now, what, limit, DebugDump(r.c))
}

// load returns the LQ entry of the dispatched load at program counter pc,
// or nil.
func (r *lqRig) load(pc int) *lqEntry {
	for i := 0; i < r.c.lqCnt; i++ {
		if e := r.c.lqAt(i); e.pc == pc {
			return e
		}
	}
	return nil
}

// bounce delivers a bounced Spec-GetS for e's request.
func (r *lqRig) bounce(e *lqEntry) func() {
	tok, slot := e.reqToken, int32(r.c.rob[e.robIdx].lqIdx)
	return func() {
		(*client)(r.c).Deliver(r.now, memsys.Response{Type: memsys.SpecRead, Token: tok, Bounced: true, LQIdx: slot})
	}
}

// sameLineLoads is three loads of one line (A, B and C at pcA, pcA+1 and
// pcA+2) behind a branch on a divide, under IS-Sp. A warm-up load to
// another line of the page fills the D-TLB and supplies the loads' base
// and the divide's operand, so all three translate at once and issue as
// USLs: A sends the Spec-GetS, B waits to reuse A's SB line, and C waits to
// reuse B's. The divide resolves the branch (not taken, as predicted) about
// a dozen cycles later, while A's read is still on its way from memory. A
// load older than the branch, to a page the D-TLB misses, holds
// retirement until well after A's line lands.
func sameLineLoads() (prog *isa.Program, pcA, pcBranch int) {
	const base = 0x10000
	b := isa.NewBuilder("samelineloads").
		Li(1, base).
		Li(7, 3).
		Ld(8, 9, 1, 256). // warm-up: r9 = 0
		Add(11, 1, 9).
		Ld(8, 12, 9, 0x30000).
		Div(5, 9, 7)
	pcBranch = b.PC()
	b.Bne(5, 0, "end")
	pcA = b.PC()
	b.Ld(8, 2, 11, 0).
		Ld(8, 3, 11, 8).
		Ld(8, 4, 11, 16).
		Label("end").
		Halt().
		DataU64(base, 0xa, 0xb, 0xc)
	return b.MustBuild(), pcA, pcBranch
}

// TestLQEventCycles pins the cycle in which the load queue acts on two
// events: a chained SB-reuse waiter copies its line in the cycle the
// chain's first line lands (B from A inside the callback, C from B in that
// cycle's memStep), and a bounced Spec-GetS is re-sent in the cycle the
// bounce lands.
func TestLQEventCycles(t *testing.T) {
	prog, pcA, _ := sameLineLoads()

	t.Run("chained reuse", func(t *testing.T) {
		r := newLQRig(t, config.ISSpectre, prog)
		r.until(t, "A's Spec-GetS", 2000, func() bool {
			c := r.load(pcA + 2)
			return c != nil && c.waitingReuse
		})
		a, b, c := r.load(pcA), r.load(pcA+1), r.load(pcA+2)
		if !a.isUSL || !a.issued || b.reuseFromSeq != a.seq || c.reuseFromSeq != b.seq {
			t.Fatalf("want C waiting on B waiting on A's Spec-GetS\n%s", DebugDump(r.c))
		}
		r.until(t, "A's line landing", 1000, func() bool { return a.lineCaptured })
		landed := r.now
		for name, e := range map[string]*lqEntry{"B": b, "C": c} {
			if !e.performed || !e.reused || e.value != r.c.mem.Read(e.addr, 8) {
				t.Errorf("cycle %d: %s performed=%v reused=%v value=%#x, want its reused line in cycle %d",
					r.now, name, e.performed, e.reused, e.value, landed)
			}
		}
	})

	t.Run("bounced Spec-GetS", func(t *testing.T) {
		r := newLQRig(t, config.ISSpectre, prog)
		r.until(t, "A's Spec-GetS", 2000, func() bool {
			a := r.load(pcA)
			return a != nil && a.issued
		})
		a := r.load(pcA)
		old, sent := a.reqToken, r.c.st.USLsIssued
		r.step(r.bounce(a))
		if !a.issued || a.reqToken == old || !a.isUSL || r.c.st.USLsIssued != sent+1 {
			t.Fatalf("cycle %d: after a bounce A issued=%v token %d (was %d) USL=%v, %d Spec-GetS sent (was %d); want it re-sent in the bounce's cycle",
				r.now, a.issued, a.reqToken, old, a.isUSL, r.c.st.USLsIssued, sent)
		}
	})
}

// TestSBReuseSkipsSafeReissuedSource covers a reuse source that bounces
// after its visibility point and re-issues as a safe load: a safe load's
// line lands in the L1, not in its SB entry, so a waiter must not copy that
// entry. It issues its own read instead and never validates a line of
// zeros.
func TestSBReuseSkipsSafeReissuedSource(t *testing.T) {
	prog, pcA, pcBranch := sameLineLoads()
	r := newLQRig(t, config.ISSpectre, prog)
	r.until(t, "B waiting on A", 2000, func() bool {
		b := r.load(pcA + 1)
		return b != nil && b.waitingReuse
	})
	a := r.load(pcA)
	var branch *robEntry
	for i := 0; i < r.c.robCnt; i++ {
		if e := r.c.robAt(i); e.pc == pcBranch {
			branch = e
		}
	}
	r.until(t, "the branch resolving", 1000, func() bool { return branch.resolved })
	if a.lineCaptured || r.c.st.Mispredicts != 0 {
		t.Fatalf("A's line landed before the branch resolved, or the branch mispredicted\n%s", DebugDump(r.c))
	}
	r.step(r.bounce(a))
	if a.isUSL || !a.issued {
		t.Fatalf("cycle %d: A did not re-issue as a safe load after its bounce\n%s", r.now, DebugDump(r.c))
	}
	r.until(t, "the halt", 5000, func() bool { return r.c.halted })
	if got := r.c.regs[3]; got != 0xb {
		t.Errorf("B loaded %#x, want 0xb", got)
	}
	if f := r.c.st.ValidationFailures; f != 0 {
		t.Errorf("%d validation failures: a waiter reused the SB entry of a safe load", f)
	}
}
