package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"invisispec/internal/bpred"
	"invisispec/internal/config"
	"invisispec/internal/defense"
	"invisispec/internal/isa"
	"invisispec/internal/memsys"
	"invisispec/internal/stats"
)

// TestHotStateHoldsNoPointers guards the entries the core copies as
// instructions move through the pipeline: a pointer-bearing field in one of
// them would bring back write barriers on every copy and make the garbage
// collector scan the ROB, the fetch buffer and the load and store queues.
func TestHotStateHoldsNoPointers(t *testing.T) {
	for _, v := range []any{robEntry{}, fetchedInst{}, lqEntry{}, sqEntry{}, bpred.State{}} {
		if p := pointerField(reflect.TypeOf(v)); p != "" {
			t.Errorf("%T%s holds a pointer", v, p)
		}
	}
}

// pointerField returns the path to the first field of t that holds a
// pointer the garbage collector must trace (a pointer, slice, map, chan,
// func, interface or string), or "" if t holds none.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerField(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
		return ""
	case reflect.Array:
		if p := pointerField(t.Elem()); p != "" {
			return "[i]" + p
		}
		return ""
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return " (" + t.String() + ")"
}

func TestOverlapsAndContains(t *testing.T) {
	cases := []struct {
		a1   uint64
		s1   uint8
		a2   uint64
		s2   uint8
		over bool
		cont bool
	}{
		{0, 8, 0, 8, true, true},
		{0, 8, 4, 4, true, true},
		{0, 8, 4, 8, true, false},
		{0, 8, 8, 8, false, false},
		{8, 8, 0, 8, false, false},
		{0, 4, 2, 1, true, true},
		{2, 1, 0, 4, true, false},
		{100, 2, 101, 1, true, true},
	}
	for _, c := range cases {
		if got := overlaps(c.a1, c.s1, c.a2, c.s2); got != c.over {
			t.Errorf("overlaps(%d,%d,%d,%d) = %v", c.a1, c.s1, c.a2, c.s2, got)
		}
		if got := contains(c.a1, c.s1, c.a2, c.s2); got != c.cont {
			t.Errorf("contains(%d,%d,%d,%d) = %v", c.a1, c.s1, c.a2, c.s2, got)
		}
	}
}

func TestOverlapContainQuickProperties(t *testing.T) {
	f := func(a1, a2 uint16, s1Sel, s2Sel uint8) bool {
		sizes := []uint8{1, 2, 4, 8}
		s1 := sizes[s1Sel%4]
		s2 := sizes[s2Sel%4]
		A1, A2 := uint64(a1), uint64(a2)
		over := overlaps(A1, s1, A2, s2)
		cont := contains(A1, s1, A2, s2)
		// Containment implies overlap.
		if cont && !over {
			return false
		}
		// Overlap is symmetric.
		if over != overlaps(A2, s2, A1, s1) {
			return false
		}
		// Reference check against explicit byte sets.
		ref := false
		for b := A2; b < A2+uint64(s2); b++ {
			if b >= A1 && b < A1+uint64(s1) {
				ref = true
			}
		}
		return over == ref
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func newTestCore(t *testing.T, d config.Defense) *Core {
	t.Helper()
	run := config.Run{Machine: config.Default(1), Defense: d, Consistency: config.TSO}
	st := stats.NewMachine(1)
	prog := isa.NewBuilder("t").Nop().Halt().MustBuild()
	mem := isa.NewMemory()
	hier := memsys.New(run.Machine, st)
	return New(0, run, prog, mem, hier, &st.Cores[0])
}

func TestRobIndexMathWrapsCorrectly(t *testing.T) {
	c := newTestCore(t, config.Base)
	c.robHead = len(c.rob) - 2
	c.robCnt = 5
	for i := 0; i < c.robCnt; i++ {
		phys := c.robPhys(i)
		if got := c.robLogical(phys); got != i {
			t.Fatalf("robLogical(robPhys(%d)) = %d", i, got)
		}
	}
	if c.robPhys(2) != 0 {
		t.Fatalf("expected wrap: robPhys(2) = %d", c.robPhys(2))
	}
}

// TestHeadVisibleUnderEveryScheme holds the retirement-deadlock rule for
// every registered scheme: the ROB head is at its visibility point even
// when the ROB holds an unresolved branch and a store, which hold back
// every later point, while a load behind them is not under any scheme
// that issues loads invisibly.
func TestHeadVisibleUnderEveryScheme(t *testing.T) {
	c := newTestCore(t, config.Base)
	c.insertEntry(&fetchedInst{pc: 0, inst: isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 2}})
	c.insertEntry(&fetchedInst{pc: 1, inst: isa.Inst{Op: isa.OpStore, Rs1: 2, Rs2: 3, Size: 8}})
	c.insertEntry(&fetchedInst{pc: 2, inst: isa.Inst{Op: isa.OpLoad, Rd: 4, Rs1: 2, Size: 8}})
	if len(c.unresolved) != 1 {
		t.Fatalf("%d unresolved control instructions, want the branch", len(c.unresolved))
	}
	for _, s := range defense.All() {
		c.sch = s
		if !c.visible(0) {
			t.Errorf("%s: the ROB head never becomes visible (retirement deadlock)", s.Name)
		}
		if s.InvisibleLoads() && c.visible(2) {
			t.Errorf("%s: a load behind an unresolved branch and a store is visible", s.Name)
		}
	}
}

func TestSquashRebuildsRAT(t *testing.T) {
	c := newTestCore(t, config.Base)
	// Dispatch three producers of r5 by hand.
	for i := 0; i < 3; i++ {
		c.insertEntry(&fetchedInst{pc: i, inst: isa.Inst{Op: isa.OpLui, Rd: 5, Imm: int64(i)}})
	}
	if c.rat[5] != c.robPhys(2) {
		t.Fatalf("RAT points at %d, want youngest producer %d", c.rat[5], c.robPhys(2))
	}
	// Squash the youngest: RAT must fall back to the middle producer.
	c.squashFromLogical(2, stats.SquashBranch, 0, false)
	if c.rat[5] != c.robPhys(1) {
		t.Fatalf("RAT after squash points at %d, want %d", c.rat[5], c.robPhys(1))
	}
	// Squash everything: RAT must clear.
	c.squashFromLogical(0, stats.SquashBranch, 0, false)
	if c.rat[5] != -1 {
		t.Fatalf("RAT after full squash = %d, want -1", c.rat[5])
	}
	if c.robCnt != 0 {
		t.Fatalf("robCnt = %d", c.robCnt)
	}
}

func TestSquashFreesLSQEntries(t *testing.T) {
	c := newTestCore(t, config.Base)
	c.insertEntry(&fetchedInst{pc: 0, inst: isa.Inst{Op: isa.OpLoad, Rd: 1, Rs1: 2, Size: 8}})
	c.insertEntry(&fetchedInst{pc: 1, inst: isa.Inst{Op: isa.OpStore, Rs1: 2, Rs2: 3, Size: 8}})
	c.insertEntry(&fetchedInst{pc: 2, inst: isa.Inst{Op: isa.OpLoad, Rd: 4, Rs1: 2, Size: 8}})
	if c.lqCnt != 2 || c.sqCnt != 1 {
		t.Fatalf("lq=%d sq=%d", c.lqCnt, c.sqCnt)
	}
	c.squashFromLogical(1, stats.SquashBranch, 0, false)
	if c.lqCnt != 1 || c.sqCnt != 0 {
		t.Fatalf("after squash lq=%d sq=%d, want 1/0", c.lqCnt, c.sqCnt)
	}
	c.squashFromLogical(0, stats.SquashBranch, 0, false)
	if c.lqCnt != 0 {
		t.Fatalf("after full squash lq=%d", c.lqCnt)
	}
}

func TestSquashBumpsEpoch(t *testing.T) {
	c := newTestCore(t, config.ISFuture)
	e0 := c.epoch
	c.squashFromLogical(0, stats.SquashInterrupt, 0, false)
	if c.epoch != e0+1 {
		t.Fatalf("epoch %d, want %d", c.epoch, e0+1)
	}
}

func TestSBMatchesMemoryMaskSemantics(t *testing.T) {
	c := newTestCore(t, config.ISFuture)
	e := &lqEntry{addr: 0x1000, size: 4}
	// Load consumed bytes 0..3; byte 1 came from store forwarding.
	e.readMask = 0b1111
	e.fwdMask = 0b0010
	e.sbData[0] = 0xAA
	e.sbData[1] = 0xFF // forwarded: memory may differ
	e.sbData[2] = 0xCC
	e.sbData[3] = 0xDD
	c.mem.SetBytes(0x1000, []byte{0xAA, 0x00, 0xCC, 0xDD})
	if !c.sbMatchesMemory(e) {
		t.Fatal("forwarded byte must be excluded from validation")
	}
	c.mem.SetByte(0x1002, 0x99)
	if c.sbMatchesMemory(e) {
		t.Fatal("memory change in a consumed byte must fail validation")
	}
	c.mem.SetByte(0x1002, 0xCC)
	c.mem.SetByte(0x1010, 0x42) // outside the mask: irrelevant
	if !c.sbMatchesMemory(e) {
		t.Fatal("bytes outside the read mask must not matter")
	}
}

func TestLoadValueExtraction(t *testing.T) {
	e := &lqEntry{addr: 0x1008 + 3, size: 4}
	for i := range e.sbData {
		e.sbData[i] = byte(i)
	}
	// Line base is 0x1000; offset is 11.
	want := uint64(11) | 12<<8 | 13<<16 | 14<<24
	if got := e.loadValue(); got != want {
		t.Fatalf("loadValue = %#x, want %#x", got, want)
	}
}

func TestFenceLikeClassification(t *testing.T) {
	for _, tc := range []struct {
		op   isa.Op
		want bool
	}{
		{isa.OpFence, true}, {isa.OpAcquire, true}, {isa.OpRelease, true},
		{isa.OpRMW, false}, {isa.OpAdd, false}, {isa.OpLoad, false},
	} {
		e := &robEntry{inst: isa.Inst{Op: tc.op}}
		if got := isFenceLike(e); got != tc.want {
			t.Errorf("isFenceLike(%v) = %v", tc.op, got)
		}
	}
}

// TestSquashRestoresBpredFromFetchBuf regresses the RAS/GHR leak on
// load-initiated squashes: when no squashed ROB entry carries a predictor
// snapshot but instructions still in the fetch buffer already speculated
// through the predictor (calls pushed the RAS), the squash must rewind to
// the fetch buffer's oldest snapshot instead of leaving the wrong-path
// pushes live.
func TestSquashRestoresBpredFromFetchBuf(t *testing.T) {
	c := newTestCore(t, config.Base)
	// Committed history: one real call on the stack.
	c.bp.PushRAS(42)
	// A snapshot-less ROB entry (say, the faulting load itself).
	c.insertEntry(&fetchedInst{pc: 0, inst: isa.Inst{Op: isa.OpLoad, Rd: 1, Rs1: 2, Size: 8, Priv: true}})
	// Fetch ran ahead: a call in the fetch buffer snapshotted the predictor
	// and then pushed its return address, exactly as ifetchDone does.
	snap := c.bp.Snapshot()
	c.fetchBuf = append(c.fetchBuf, fetchedInst{
		pc: 1, inst: isa.Inst{Op: isa.OpCall, Rd: 3, Target: 9}, hasSnap: true, snap: snap,
	})
	c.bp.PushRAS(2)
	c.bp.PushRAS(777) // deeper wrong-path speculation after the snapshot

	c.squashFromLogical(0, stats.SquashException, 0, true)

	if got := c.bp.PopRAS(); got != 42 {
		t.Fatalf("RAS top after squash = %d, want committed 42 (wrong-path pushes leaked)", got)
	}
}

// TestSquashPrefersRobSnapshotOverFetchBuf: when a squashed ROB entry does
// carry a snapshot, it is older than anything in the fetch buffer and must
// win.
func TestSquashPrefersRobSnapshotOverFetchBuf(t *testing.T) {
	c := newTestCore(t, config.Base)
	c.bp.PushRAS(42)
	robSnap := c.bp.Snapshot()
	c.bp.PushRAS(100) // speculation by the ROB-resident branch
	c.insertEntry(&fetchedInst{pc: 0, inst: isa.Inst{Op: isa.OpCall, Rd: 3, Target: 5},
		predTaken: true, predTarget: 5})
	c.robAt(0).hasSnap = true
	c.robAt(0).snap = robSnap
	fbSnap := c.bp.Snapshot()
	c.fetchBuf = append(c.fetchBuf, fetchedInst{
		pc: 5, inst: isa.Inst{Op: isa.OpCall, Rd: 4, Target: 9}, hasSnap: true, snap: fbSnap,
	})
	c.bp.PushRAS(6)

	c.squashFromLogical(0, stats.SquashException, 0, true)

	if got := c.bp.PopRAS(); got != 42 {
		t.Fatalf("RAS top after squash = %d, want 42 from the ROB snapshot", got)
	}
}

// TestStructuralCheckCatchesStageStateDrift corrupts, one at a time, each
// counter, mask and list the stages maintain about the ROB and the LQ, and
// expects StructuralCheck to report the mismatch with the scan it
// replaces.
func TestStructuralCheckCatchesStageStateDrift(t *testing.T) {
	build := func() *Core {
		c := newTestCore(t, config.Base)
		c.run.Consistency = config.RC // acquires stay open under RC
		c.insertEntry(&fetchedInst{pc: 0, inst: isa.Inst{Op: isa.OpLui, Rd: 5, Imm: 1}})
		c.insertEntry(&fetchedInst{pc: 1, inst: isa.Inst{Op: isa.OpAdd, Rd: 6, Rs1: 5, Rs2: 5}})
		c.insertEntry(&fetchedInst{pc: 2, inst: isa.Inst{Op: isa.OpAcquire}})
		c.insertEntry(&fetchedInst{pc: 2, inst: isa.Inst{Op: isa.OpFence}, synthetic: true})
		c.insertEntry(&fetchedInst{pc: 3, inst: isa.Inst{Op: isa.OpRMW, Rd: 7, Rs1: 6, Rs2: 5, Size: 8}})
		c.insertEntry(&fetchedInst{pc: 4, inst: isa.Inst{Op: isa.OpMul, Rd: 8, Rs1: 6, Rs2: 6}})
		c.now = 1
		// The Lui enters a functional unit and the acquire issues; the
		// acquire then holds back the synthetic fence, which parks, and the
		// atomic, and the multiply waits for the add. A Lui dispatched
		// after issue is ready for the next cycle.
		c.issue()
		c.insertEntry(&fetchedInst{pc: 5, inst: isa.Inst{Op: isa.OpLui, Rd: 9, Imm: 2}})
		// Two unresolved control instructions waiting for operands, and a
		// load whose address generation is done by hand: its address is
		// ready, so memStep can act on it.
		c.insertEntry(&fetchedInst{pc: 6, inst: isa.Inst{Op: isa.OpBeq, Rs1: 9, Rs2: 9}})
		c.insertEntry(&fetchedInst{pc: 7, inst: isa.Inst{Op: isa.OpRet, Rs1: 6}})
		c.insertEntry(&fetchedInst{pc: 8, inst: isa.Inst{Op: isa.OpLoad, Rd: 10, Rs1: 20, Size: 8}})
		ld := c.robAt(9)
		clearBit(c.ready, c.robPhys(9))
		ld.st = stWaitMem
		c.lq[ld.lqIdx].addr, c.lq[ld.lqIdx].addrReady = 0x1000, true
		setBit(c.lqWork, ld.lqIdx)
		if err := c.StructuralCheck(); err != nil {
			t.Fatalf("consistent core rejected: %v", err)
		}
		if c.openFences != 2 || c.rob[c.robPhys(0)].consumers != 3 ||
			!slices.Equal(maskSlots(c.ready), []int{c.robPhys(6)}) ||
			!slices.Equal(maskSlots(c.parked), []int{c.robPhys(3)}) ||
			len(c.executing) != 1 || len(c.barriers) != 3 ||
			!slices.Equal(c.unresolved, []int{c.robPhys(7), c.robPhys(8)}) ||
			!slices.Equal(maskSlots(c.lqWork), []int{ld.lqIdx}) {
			t.Fatalf("unexpected set-up: open=%d consumers=%d ready=%v parked=%v executing=%v barriers=%v unresolved=%v lqWork=%v",
				c.openFences, c.rob[c.robPhys(0)].consumers, maskSlots(c.ready), maskSlots(c.parked),
				c.executing, c.barriers, c.unresolved, maskSlots(c.lqWork))
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		corrupt func(c *Core)
		want    string
	}{
		{"open-fence count", func(c *Core) { c.openFences++ }, "open-fence count"},
		{"consumer count", func(c *Core) { c.rob[c.robPhys(1)].consumers-- }, "consumer count"},
		{"ready bit cleared", func(c *Core) { clearBit(c.ready, c.robPhys(6)) }, "ready mask"},
		{"parked bit on an entry no barrier holds", func(c *Core) {
			clearBit(c.ready, c.robPhys(6))
			setBit(c.parked, c.robPhys(6))
		}, "parked with no older memory barrier"},
		{"consumers left on a completed producer", func(c *Core) { c.rob[c.robPhys(0)].st = stCompleted }, "consumers still waiting"},
		{"executing entry leaked", func(c *Core) { c.executing = append(c.executing, c.robPhys(4)) }, "executing list"},
		{"barriers out of order", func(c *Core) { c.barriers[0], c.barriers[1] = c.barriers[1], c.barriers[0] }, "barrier list"},
		{"unresolved branch missing", func(c *Core) { c.unresolved = c.unresolved[1:] }, "unresolved list"},
		{"unresolved list out of order", func(c *Core) {
			c.unresolved[0], c.unresolved[1] = c.unresolved[1], c.unresolved[0]
		}, "unresolved list"},
		{"LQ work bit cleared on an entry that can act", func(c *Core) { c.lqWork[0] = 0 }, "LQ work mask"},
		{"LQ work bit on a free slot", func(c *Core) { setBit(c.lqWork, c.lqPhys(c.lqCnt)) }, "LQ work mask"},
	} {
		c := build()
		tc.corrupt(c)
		err := c.StructuralCheck()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: StructuralCheck = %v, want an error about the %s", tc.name, err, tc.want)
		}
	}
}

// TestIssueOrder dispatches a few entries by hand and steps completion and
// issue alone, cycle by cycle, checking after each cycle which entries have
// left the dispatched state ('I') and which still wait ('D'). The cases pin
// down issue's ordering rules: memory operations wait for an older atomic
// even while the atomic's own operands are pending; a synthetic fence held
// back by an older barrier holds back nothing itself, while one that has
// issued closes issue to everything younger; and an instruction refused a
// functional unit stays ready for the next cycle without blocking younger
// ones.
func TestIssueOrder(t *testing.T) {
	inst := func(op isa.Op, rd, rs1, rs2 uint8) fetchedInst {
		return fetchedInst{inst: isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Size: 8}}
	}
	synFence := fetchedInst{inst: isa.Inst{Op: isa.OpFence}, synthetic: true}
	for _, tc := range []struct {
		name    string
		cm      config.Consistency
		entries []fetchedInst
		want    []string // per cycle, one letter per entry
	}{
		{
			name: "atomic with a pending operand holds back a younger load",
			cm:   config.TSO,
			entries: []fetchedInst{
				inst(isa.OpMul, 2, 3, 3),  // 3-cycle producer of the atomic's address
				inst(isa.OpRMW, 4, 2, 5),  // waits for r2
				inst(isa.OpLoad, 6, 7, 0), // ready, but younger than the atomic
				inst(isa.OpAdd, 8, 9, 9),  // not a memory operation: issues
			},
			want: []string{"IDDI", "IDDI", "IDDI", "IIDI", "IIDI"},
		},
		{
			name: "synthetic fence held by an older acquire blocks no younger ALU op",
			cm:   config.RC,
			entries: []fetchedInst{
				inst(isa.OpAcquire, 0, 0, 0),
				synFence,
				inst(isa.OpAdd, 8, 9, 9),
				inst(isa.OpLoad, 6, 7, 0),
			},
			want: []string{"IDID", "IDID"},
		},
		{
			name: "issued synthetic fence blocks everything younger",
			cm:   config.TSO,
			entries: []fetchedInst{
				synFence,
				inst(isa.OpAdd, 8, 9, 9),
				inst(isa.OpLui, 10, 0, 0),
			},
			want: []string{"IDD", "IDD"},
		},
		{
			name: "third multiply waits for a unit while a younger ALU op issues",
			cm:   config.TSO,
			entries: []fetchedInst{
				inst(isa.OpMul, 2, 3, 3),
				inst(isa.OpMul, 4, 3, 3),
				inst(isa.OpMul, 5, 3, 3),
				inst(isa.OpAdd, 8, 9, 9),
			},
			want: []string{"IIDI", "IIII"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCore(t, config.Base)
			c.run.Consistency = tc.cm
			for i := range tc.entries {
				c.insertEntry(&tc.entries[i])
			}
			for cycle, want := range tc.want {
				c.now = uint64(cycle + 1)
				c.completeExec()
				c.issue()
				got := make([]byte, c.robCnt)
				for i := range got {
					got[i] = 'I'
					if c.robAt(i).st == stDispatched {
						got[i] = 'D'
					}
				}
				if string(got) != want {
					t.Fatalf("cycle %d: issue state %s, want %s\n%s", c.now, got, want, DebugDump(c))
				}
				if err := c.StructuralCheck(); err != nil {
					t.Fatalf("cycle %d: %v", c.now, err)
				}
			}
		})
	}
}
