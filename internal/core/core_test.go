package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/core"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
	"invisispec/internal/stats"
	"invisispec/internal/workload"
)

// allRuns enumerates the five Table V defenses under both memory models on
// a single-core machine.
func allRuns(cores int) []config.Run {
	var runs []config.Run
	for _, d := range config.AllDefenses() {
		for _, m := range []config.Consistency{config.TSO, config.RC} {
			runs = append(runs, config.Run{Machine: config.Default(cores), Defense: d, Consistency: m})
		}
	}
	return runs
}

// runOne executes a single-threaded program to completion and returns the
// machine.
func runOne(t *testing.T, run config.Run, p *isa.Program, budget uint64) *sim.Machine {
	t.Helper()
	m := sim.MustNew(run, []*isa.Program{p})
	if err := m.RunToCompletion(budget); err != nil {
		t.Fatalf("%v: %v (cycle %d)", run, err, m.Cycle())
	}
	return m
}

// checkAgainstInterp compares the final architectural state of the OoO core
// with the functional interpreter.
func checkAgainstInterp(t *testing.T, run config.Run, p *isa.Program, budget uint64) *sim.Machine {
	t.Helper()
	ref := isa.NewInterp(p)
	if err := ref.Run(4_000_000); err != nil {
		t.Fatalf("interp: %v", err)
	}
	m := runOne(t, run, p, budget)
	regs := m.Cores[0].Regs()
	for r := 0; r < isa.NumRegs; r++ {
		if regs[r] != ref.Regs[r] {
			t.Fatalf("%v: r%d = %#x, interp has %#x", run, r, regs[r], ref.Regs[r])
		}
	}
	return m
}

func countdownProgram() *isa.Program {
	return isa.NewBuilder("countdown").
		Li(1, 100).
		Li(2, 0).
		Label("loop").
		Add(2, 2, 1).
		AddI(1, 1, -1).
		Bne(1, 0, "loop").
		Li(3, 0x2000).
		St(8, 3, 0, 2).
		Ld(8, 4, 3, 0).
		Halt().
		MustBuild()
}

func TestCountdownAllConfigs(t *testing.T) {
	p := countdownProgram()
	for _, run := range allRuns(1) {
		run := run
		t.Run(run.String(), func(t *testing.T) {
			m := checkAgainstInterp(t, run, p, 2_000_000)
			if got := m.Mem.Read(0x2000, 8); got != 5050 {
				t.Fatalf("memory sum = %d, want 5050", got)
			}
			if m.Stats.Cores[0].Retired == 0 {
				t.Fatal("no instructions retired")
			}
		})
	}
}

// TestSpecLabelsCountOnlyUnderSpecBox runs a branchy kernel whose
// mispredictions squash USLs: SpecBox counts the labels its USLs clear at
// retirement and flush at squashes, and no other scheme counts either.
func TestSpecLabelsCountOnlyUnderSpecBox(t *testing.T) {
	prog := workload.MustSPEC("sjeng")
	for _, d := range config.AllDefenses() {
		m := sim.MustNew(config.Run{Machine: config.Default(1), Defense: d, Consistency: config.TSO}, []*isa.Program{prog})
		if err := m.RunInstructions(3000, 3_000_000); err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		st := m.Stats.Cores[0]
		if st.Squashes[stats.SquashBranch] == 0 {
			t.Fatalf("%s: no branch squash to flush labels", d)
		}
		cleared, flushed := st.SpecLabelsCleared, st.SpecLabelsFlushed
		if counts := d == config.SpecBox; counts != (cleared > 0) || counts != (flushed > 0) {
			t.Errorf("%s: %d labels cleared and %d flushed", d, cleared, flushed)
		}
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// A load immediately after a store to the same address must see the
	// store's data (from the SQ) long before the store performs.
	p := isa.NewBuilder("fwd").
		Li(1, 0x3000).
		Li(2, 0xABCD).
		St(8, 1, 0, 2).
		Ld(8, 3, 1, 0).
		AddI(4, 3, 1). // dependent use
		Halt().
		MustBuild()
	for _, run := range allRuns(1) {
		m := checkAgainstInterp(t, run, p, 1_000_000)
		if got := m.Cores[0].Regs()[3]; got != 0xABCD {
			t.Fatalf("%v: forwarded value %#x", run, got)
		}
	}
}

func TestPartialOverlapStallsNotCorrupts(t *testing.T) {
	// Store 8 bytes; load 2 bytes from the middle: containment holds. Then
	// store 2 bytes; load 8 bytes overlapping: partial, must wait for the
	// store to perform and still read coherent data.
	p := isa.NewBuilder("partial").
		Li(1, 0x3100).
		Li(2, 0x1122334455667788).
		St(8, 1, 0, 2).
		Ld(2, 3, 1, 2). // bytes 2..3 => 0x3344... little endian: 0x4433? see interp
		Li(4, 0x9999).
		St(2, 1, 4, 4). // overwrite bytes 4..5
		Ld(8, 5, 1, 0). // partially overlaps the 2-byte store
		Halt().
		MustBuild()
	for _, run := range allRuns(1) {
		checkAgainstInterp(t, run, p, 1_000_000)
	}
}

func TestMemoryDependenceSquash(t *testing.T) {
	// A store whose address arrives late (behind a divide chain) aliases a
	// younger load that has already performed: the load must squash and
	// re-execute, ending with the stored value.
	b := isa.NewBuilder("ssb")
	b.Li(1, 0x3200).
		Li(2, 77).
		St(8, 1, 0, 2).  // seed mem[0x3200] = 77
		Ld(8, 10, 1, 0). // warm the TLB so the racing load is fast
		Fence().         // let the seed store perform
		// The store's address chain starts only after the fence (it hangs
		// off the post-fence load), so the racing load issues first.
		Ld(8, 11, 1, 0).  // 77
		Mul(12, 11, 11).  // 5929
		Div(13, 12, 11).  // 77
		Div(13, 13, 11).  // 1
		AddI(13, 13, -1). // 0, available very late
		Add(7, 1, 13).    // r7 = 0x3200
		Li(8, 123).
		St(8, 7, 0, 8). // store to 0x3200, address late
		Ld(8, 9, 1, 0). // load 0x3200: issues early, must end up 123
		Halt()
	p := b.MustBuild()
	sawSquash := false
	for _, run := range allRuns(1) {
		m := checkAgainstInterp(t, run, p, 1_000_000)
		if got := m.Cores[0].Regs()[9]; got != 123 {
			t.Fatalf("%v: r9 = %d, want 123", run, got)
		}
		if m.Stats.Cores[0].Squashes[stats.SquashMemDep] > 0 {
			sawSquash = true
		}
	}
	if !sawSquash {
		t.Error("no configuration exercised the memory-dependence squash")
	}
}

func TestBranchTraining(t *testing.T) {
	// A loop branch is taken 99 times then falls through; the predictor
	// should learn it and keep mispredictions low.
	p := countdownProgram()
	run := config.Run{Machine: config.Default(1), Defense: config.Base, Consistency: config.TSO}
	m := runOne(t, run, p, 1_000_000)
	c := m.Stats.Cores[0]
	if c.CondBranches != 100 {
		t.Fatalf("retired branches = %d, want 100", c.CondBranches)
	}
	if c.Mispredicts > 10 {
		t.Fatalf("mispredicts = %d, too many for a monotone loop", c.Mispredicts)
	}
}

func TestCallRetIndirect(t *testing.T) {
	b := isa.NewBuilder("callret")
	b.Li(10, 0).
		Li(11, 5).
		Label("loop").
		Call(30, "double").
		AddI(11, 11, -1).
		Bne(11, 0, "loop").
		Jmp("dispatch")
	b.Label("double").
		Add(10, 10, 10).
		AddI(10, 10, 1).
		Ret(30)
	b.Label("dispatch")
	b.Li(12, 0x4000).
		Ld(8, 13, 12, 0).
		JmpI(13)
	b.Label("end").Li(14, 42).Halt()
	p := b.MustBuild()
	p.InitMem = append(p.InitMem, isa.InitChunk{Addr: 0x4000, Data: leU64(uint64(p.Labels["end"]))})
	for _, run := range allRuns(1) {
		m := checkAgainstInterp(t, run, p, 1_000_000)
		if got := m.Cores[0].Regs()[14]; got != 42 {
			t.Fatalf("%v: indirect dispatch failed, r14=%d", run, got)
		}
	}
}

func leU64(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func TestRMWAtomic(t *testing.T) {
	p := isa.NewBuilder("rmw").
		Li(1, 0x5000).
		Li(2, 3).
		RMW(8, 3, 1, 2).
		RMW(8, 4, 1, 2).
		Ld(8, 5, 1, 0).
		Halt().
		MustBuild()
	for _, run := range allRuns(1) {
		m := checkAgainstInterp(t, run, p, 1_000_000)
		if got := m.Mem.Read(0x5000, 8); got != 6 {
			t.Fatalf("%v: rmw sum = %d", run, got)
		}
	}
}

func TestExceptionHandler(t *testing.T) {
	p := isa.NewBuilder("fault").
		Li(1, 0x6000).
		LdPriv(8, 2, 1, 0).
		Li(3, 1). // transient: must never commit
		Halt().
		Label("handler").
		Li(4, 0xDEAD).
		Halt().
		Handler("handler").
		MustBuild()
	for _, run := range allRuns(1) {
		m := checkAgainstInterp(t, run, p, 1_000_000)
		c := m.Stats.Cores[0]
		if c.Squashes[stats.SquashException] != 1 {
			t.Fatalf("%v: exception squashes = %d", run, c.Squashes[stats.SquashException])
		}
		if m.Cores[0].Regs()[2] != 0 || m.Cores[0].Regs()[3] != 0 {
			t.Fatalf("%v: transient state committed", run)
		}
	}
}

func TestTimerInterrupts(t *testing.T) {
	run := config.Run{Machine: config.Default(1), Defense: config.Base, Consistency: config.TSO}
	run.Machine.InterruptInterval = 97
	p := countdownProgram()
	m := checkAgainstInterp(t, run, p, 2_000_000)
	if m.Stats.Cores[0].Squashes[stats.SquashInterrupt] == 0 {
		t.Fatal("no interrupt squashes with a 97-cycle timer")
	}
}

func TestInterruptsDelayedUnderISFuture(t *testing.T) {
	run := config.Run{Machine: config.Default(1), Defense: config.ISFuture, Consistency: config.TSO}
	run.Machine.InterruptInterval = 997
	// Each iteration: a divide chain holds the ROB head while an L1-hit USL
	// behind an initially unresolved branch validates — so the §VI-D
	// interrupt-disable window is open for many cycles per iteration.
	b := isa.NewBuilder("window")
	b.Li(20, 0x7000).
		Li(25, 64).
		Li(24, 0x7000).
		Label("warm"). // pull the data region into the L1
		Ld(8, 26, 24, 0).
		AddI(24, 24, 64).
		AddI(25, 25, -1).
		Bne(25, 0, "warm").
		Li(2, 2000).
		Li(10, 6400).
		Li(11, 10).
		Li(18, 640).
		Label("loop").
		Div(12, 10, 11). // 640, resolves the branch late
		Div(14, 12, 11). // holds the ROB head
		Div(15, 14, 11). // holds the ROB head longer
		AndI(16, 12, 0).
		Add(17, 20, 16).
		Ld(8, 3, 17, 0).    // address depends on the divide: performs late
		Bne(12, 18, "out"). // never taken, resolves late
		Ld(8, 4, 20, 8).    // USL: performs before r3 -> needs validation
		AddI(2, 2, -1).
		Bne(2, 0, "loop").
		Label("out").
		Halt()
	p := b.MustBuild()
	m := runOne(t, run, p, 4_000_000)
	if m.Stats.Cores[0].InterruptsDelayed == 0 {
		t.Fatal("IS-Fu never exercised the interrupt-disable window")
	}
}

func TestPrefetchInstruction(t *testing.T) {
	p := isa.NewBuilder("prefetch").
		Li(1, 0x8000).
		Prefetch(1, 0).
		Li(2, 5).
		Ld(8, 3, 1, 0).
		Halt().
		MustBuild()
	for _, run := range allRuns(1) {
		checkAgainstInterp(t, run, p, 1_000_000)
	}
}

func TestFencedProgram(t *testing.T) {
	p := isa.NewBuilder("fenced").
		Li(1, 0x9000).
		Li(2, 7).
		St(8, 1, 0, 2).
		Fence().
		Ld(8, 3, 1, 0).
		Acquire().
		Ld(8, 4, 1, 0).
		Release().
		St(8, 1, 8, 4).
		Halt().
		MustBuild()
	for _, run := range allRuns(1) {
		checkAgainstInterp(t, run, p, 1_000_000)
	}
}

// randomProgram builds a terminating single-threaded program exercising
// arithmetic, memory, bounded loops, calls and branches.
func randomProgram(rng *rand.Rand, id int) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("rand%d", id))
	const dataBase = 0x10000
	const dataWords = 64
	// Seed data region.
	words := make([]uint64, dataWords)
	for i := range words {
		words[i] = rng.Uint64() % 1000
	}
	b.DataU64(dataBase, words...)
	// r20 = data base; r21 scratch; r1..r8 working registers.
	b.Li(20, dataBase)
	for r := uint8(1); r <= 8; r++ {
		b.Li(r, rng.Uint64()%512)
	}
	nBlocks := 3 + rng.Intn(4)
	for blk := 0; blk < nBlocks; blk++ {
		label := fmt.Sprintf("blk%d", blk)
		cnt := uint8(9) // loop counter register
		b.Li(cnt, uint64(2+rng.Intn(6)))
		b.Label(label)
		nOps := 3 + rng.Intn(8)
		for i := 0; i < nOps; i++ {
			rd := uint8(1 + rng.Intn(8))
			rs1 := uint8(1 + rng.Intn(8))
			rs2 := uint8(1 + rng.Intn(8))
			switch rng.Intn(10) {
			case 0, 1, 2:
				ops := []func(uint8, uint8, uint8) *isa.Builder{b.Add, b.Sub, b.Xor, b.And, b.Or, b.Mul}
				ops[rng.Intn(len(ops))](rd, rs1, rs2)
			case 3:
				b.Div(rd, rs1, rs2)
			case 4, 5:
				// Bounded load: index = rs1 % dataWords.
				b.AndI(21, rs1, dataWords-1).
					ShlI(21, 21, 3).
					Add(21, 21, 20).
					Ld(8, rd, 21, 0)
			case 6, 7:
				b.AndI(21, rs1, dataWords-1).
					ShlI(21, 21, 3).
					Add(21, 21, 20).
					St(8, 21, 0, rs2)
			case 8:
				// Data-dependent short forward branch (hard to predict).
				skip := fmt.Sprintf("skip%d_%d", blk, i)
				b.AndI(21, rs1, 1).
					Bne(21, 0, skip).
					Add(rd, rs1, rs2).
					Label(skip)
			case 9:
				b.AddI(rd, rs1, int64(rng.Intn(64)))
			}
		}
		if rng.Intn(3) == 0 {
			b.Fence()
		}
		b.AddI(cnt, cnt, -1)
		b.Bne(cnt, 0, label)
	}
	b.Halt()
	return b.MustBuild()
}

func TestRandomProgramsMatchInterpreter(t *testing.T) {
	// The heavyweight cross-check: every defense and memory model must
	// produce bit-identical architectural results to the golden model on
	// randomly generated programs.
	rng := rand.New(rand.NewSource(42))
	const programs = 8
	for i := 0; i < programs; i++ {
		p := randomProgram(rng, i)
		for _, run := range allRuns(1) {
			checkAgainstInterp(t, run, p, 4_000_000)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := countdownProgram()
	run := config.Run{Machine: config.Default(1), Defense: config.ISFuture, Consistency: config.TSO}
	m1 := runOne(t, run, p, 1_000_000)
	m2 := runOne(t, run, p, 1_000_000)
	if m1.Cycle() != m2.Cycle() {
		t.Fatalf("non-deterministic: %d vs %d cycles", m1.Cycle(), m2.Cycle())
	}
	if m1.Stats.TotalTraffic() != m2.Stats.TotalTraffic() {
		t.Fatal("non-deterministic traffic")
	}
}

// TestCommitTraceMatchesInterpreter compares the full architectural commit
// stream (program counters, in order, plus register writes) against the
// golden model — a much stronger oracle than final-state equality.
func TestCommitTraceMatchesInterpreter(t *testing.T) {
	p := randomProgram(rand.New(rand.NewSource(321)), 99)

	// Golden stream from the interpreter.
	type step struct {
		pc  int
		reg int // -1 if no write
		val uint64
	}
	var want []step
	it := isa.NewInterp(p)
	for {
		pc := it.PC
		in := p.At(pc)
		running := it.Step()
		s := step{pc: pc, reg: -1}
		if in.Op.HasDest() && !(in.Op == isa.OpLoad && in.Priv) {
			s.reg, s.val = int(in.Rd), it.Regs[in.Rd]
		}
		want = append(want, s)
		if !running {
			break
		}
	}

	for _, run := range allRuns(1) {
		run := run
		m := sim.MustNew(run, []*isa.Program{p})
		var got []step
		m.Cores[0].SetTracer(func(ev core.CommitEvent) {
			s := step{pc: ev.PC, reg: -1}
			if ev.WroteReg {
				s.reg, s.val = int(ev.Reg), ev.RegValue
			}
			got = append(got, s)
		})
		if err := m.RunToCompletion(4_000_000); err != nil {
			t.Fatalf("%v: %v", run, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: committed %d instructions, interp executed %d", run, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.pc != w.pc {
				t.Fatalf("%v: commit %d at pc %d, interp at pc %d", run, i, g.pc, w.pc)
			}
			// Register-write equality, except OpCycle whose value is
			// timing-defined (the interpreter reports 0).
			if p.At(w.pc).Op == isa.OpCycle {
				continue
			}
			if g.reg != w.reg || g.reg >= 0 && g.val != w.val {
				t.Fatalf("%v: commit %d (pc %d) wrote r%d=%#x, interp r%d=%#x",
					run, i, g.pc, g.reg, g.val, w.reg, w.val)
			}
		}
	}
}
