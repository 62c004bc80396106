package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op                 Op
		alu, branch, fence bool
	}{
		{OpAdd, true, false, false},
		{OpLui, true, false, false},
		{OpLoad, false, false, false},
		{OpStore, false, false, false},
		{OpBeq, false, true, false},
		{OpJmpI, false, true, false},
		{OpRet, false, true, false},
		{OpFence, false, false, true},
		{OpRMW, false, false, true},
		{OpAcquire, false, false, true},
	}
	for _, c := range cases {
		if got := c.op.IsALU(); got != c.alu {
			t.Errorf("%v IsALU = %v, want %v", c.op, got, c.alu)
		}
		if got := c.op.IsBranch(); got != c.branch {
			t.Errorf("%v IsBranch = %v, want %v", c.op, got, c.branch)
		}
		if got := c.op.IsFence(); got != c.fence {
			t.Errorf("%v IsFence = %v, want %v", c.op, got, c.fence)
		}
	}
}

func TestEvalALU(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		imm  int64
		want uint64
	}{
		{OpAdd, 3, 4, 0, 7},
		{OpSub, 3, 4, 0, ^uint64(0)},
		{OpAnd, 0xF0, 0x3C, 0, 0x30},
		{OpOr, 0xF0, 0x0C, 0, 0xFC},
		{OpXor, 0xFF, 0x0F, 0, 0xF0},
		{OpShl, 1, 65, 0, 2}, // shift amount masked to 6 bits
		{OpShr, 8, 2, 0, 2},
		{OpMul, 7, 6, 0, 42},
		{OpDiv, 42, 6, 0, 7},
		{OpDiv, 42, 0, 0, ^uint64(0)},
		{OpSlt, 1, 2, 0, 1},
		{OpSlt, 2, 1, 0, 0},
		{OpAddI, 10, 99, -3, 7},
		{OpAndI, 0xFF, 99, 0x0F, 0x0F},
		{OpShlI, 1, 99, 4, 16},
		{OpShrI, 16, 99, 4, 1},
		{OpLui, 99, 99, 1234, 1234},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b, c.imm); got != c.want {
			t.Errorf("EvalALU(%v, %d, %d, %d) = %d, want %d", c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want bool
	}{
		{OpBeq, 5, 5, true}, {OpBeq, 5, 6, false},
		{OpBne, 5, 6, true}, {OpBne, 5, 5, false},
		{OpBlt, 5, 6, true}, {OpBlt, 6, 5, false}, {OpBlt, 5, 5, false},
		{OpBge, 6, 5, true}, {OpBge, 5, 5, true}, {OpBge, 4, 5, false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a, c.b); got != c.want {
			t.Errorf("BranchTaken(%v, %d, %d) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalALUPanicsOnNonALU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EvalALU(OpLoad) did not panic")
		}
	}()
	EvalALU(OpLoad, 0, 0, 0)
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write(100, 8, 0x1122334455667788)
	if got := m.Read(100, 8); got != 0x1122334455667788 {
		t.Fatalf("Read(100,8) = %#x", got)
	}
	if got := m.Read(100, 4); got != 0x55667788 {
		t.Fatalf("Read(100,4) = %#x", got)
	}
	if got := m.Read(104, 4); got != 0x11223344 {
		t.Fatalf("Read(104,4) = %#x", got)
	}
	if got := m.Read(100, 1); got != 0x88 {
		t.Fatalf("Read(100,1) = %#x", got)
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if got := m.Read(1<<40, 8); got != 0 {
		t.Fatalf("unwritten memory read %#x, want 0", got)
	}
	if m.Footprint() != 0 {
		t.Fatalf("reads must not allocate pages; footprint = %d", m.Footprint())
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(PageSize - 3)
	m.Write(addr, 8, 0xAABBCCDDEEFF0011)
	if got := m.Read(addr, 8); got != 0xAABBCCDDEEFF0011 {
		t.Fatalf("cross-page read = %#x", got)
	}
	if m.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2 pages", m.Footprint())
	}
}

func TestMemoryQuickRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64, szSel uint8) bool {
		addr %= 1 << 30
		size := []uint8{1, 2, 4, 8}[szSel%4]
		m.Write(addr, size, v)
		want := v
		if size < 8 {
			want &= (1 << (8 * uint(size))) - 1
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryPageOpsMatchBytes holds the page-at-a-time accessors to the
// byte-at-a-time ones: SetBytes and Write, on writes that straddle pages or
// not, leave every byte as SetByte would, and Read and CopyLine return what
// ByteAt reads, on pages never written too.
func TestMemoryPageOpsMatchBytes(t *testing.T) {
	m, ref := NewMemory(), NewMemory()
	rng := rand.New(rand.NewSource(3))
	const span = 3 * PageSize
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(span))
		switch rng.Intn(3) {
		case 0:
			data := make([]byte, rng.Intn(2*PageSize))
			rng.Read(data)
			m.SetBytes(addr, data)
			for j, b := range data {
				ref.SetByte(addr+uint64(j), b)
			}
		case 1:
			size, v := []uint8{1, 2, 4, 8}[rng.Intn(4)], rng.Uint64()
			m.Write(addr, size, v)
			for j := uint8(0); j < size; j++ {
				ref.SetByte(addr+uint64(j), byte(v>>(8*j)))
			}
		case 2:
			addr += span // beyond every write
		}
		size := []uint8{1, 2, 4, 8}[rng.Intn(4)]
		var want uint64
		for j := uint8(0); j < size; j++ {
			want |= uint64(ref.ByteAt(addr+uint64(j))) << (8 * j)
		}
		if got := m.Read(addr, size); got != want {
			t.Fatalf("Read(%#x, %d) = %#x, want %#x", addr, size, got, want)
		}
		var line [LineBytes]byte
		m.CopyLine(&line, addr)
		base := addr &^ (LineBytes - 1)
		for j, b := range line {
			if want := ref.ByteAt(base + uint64(j)); b != want {
				t.Fatalf("CopyLine(%#x)[%d] = %#x, want %#x", addr, j, b, want)
			}
		}
	}
	if m.Footprint() != ref.Footprint() {
		t.Fatalf("footprint %d pages, byte-wise writes touch %d", m.Footprint(), ref.Footprint())
	}
}

func TestBuilderLabelsAndData(t *testing.T) {
	b := NewBuilder("t")
	b.Li(1, 10).
		Label("loop").
		AddI(1, 1, -1).
		Bne(1, 0, "loop").
		Halt().
		DataU64(0x1000, 42, 43)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["loop"] != 1 {
		t.Fatalf("label loop at %d, want 1", p.Labels["loop"])
	}
	if p.Insts[2].Target != 1 {
		t.Fatalf("branch target %d, want 1", p.Insts[2].Target)
	}
	if len(p.InitMem) != 1 || p.InitMem[0].Addr != 0x1000 || len(p.InitMem[0].Data) != 16 {
		t.Fatalf("bad init chunks: %+v", p.InitMem)
	}
	m := NewMemory()
	m.LoadProgramImage(p)
	if m.Read(0x1008, 8) != 43 {
		t.Fatalf("image word = %d, want 43", m.Read(0x1008, 8))
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("t").Jmp("nowhere").Build(); err == nil {
		t.Error("undefined label not reported")
	}
	if _, err := NewBuilder("t").Label("a").Label("a").Build(); err == nil {
		t.Error("duplicate label not reported")
	}
	if _, err := NewBuilder("t").Handler("missing").Build(); err == nil {
		t.Error("undefined handler not reported")
	}
	if _, err := NewBuilder("t").Ld(3, 1, 2, 0).Build(); err == nil {
		t.Error("invalid size not reported")
	}
}

func TestProgramAtOutOfRange(t *testing.T) {
	p := NewBuilder("t").Nop().MustBuild()
	if got := p.At(-1).Op; got != OpHalt {
		t.Errorf("At(-1) = %v, want halt", got)
	}
	if got := p.At(99).Op; got != OpHalt {
		t.Errorf("At(99) = %v, want halt", got)
	}
	if !p.Valid(0) || p.Valid(1) {
		t.Error("Valid range wrong")
	}
}

func TestInterpCountdownLoop(t *testing.T) {
	p := NewBuilder("t").
		Li(1, 5).
		Li(2, 0).
		Label("loop").
		Add(2, 2, 1).
		AddI(1, 1, -1).
		Bne(1, 0, "loop").
		Li(3, 0x2000).
		St(8, 3, 0, 2).
		Halt().
		MustBuild()
	it := NewInterp(p)
	if err := it.Run(1000); err != nil {
		t.Fatal(err)
	}
	if it.Regs[2] != 15 {
		t.Fatalf("sum = %d, want 15", it.Regs[2])
	}
	if got := it.Mem.Read(0x2000, 8); got != 15 {
		t.Fatalf("stored sum = %d, want 15", got)
	}
}

func TestInterpCallRetAndIndirect(t *testing.T) {
	// main: call f; after return r5 = 7; jump-table dispatch via JmpI.
	b := NewBuilder("t")
	b.Call(30, "f").
		Li(5, 7).
		Li(6, 0). // index into table
		Li(7, 0).
		Jmp("dispatch")
	b.Label("f").Li(4, 99).Ret(30)
	b.Label("dispatch").
		Li(8, 0)
	// Compute target = table[0] loaded from memory.
	b.Li(9, 0x3000).
		Ld(8, 10, 9, 0).
		JmpI(10)
	b.Label("case0").Li(11, 123).Halt()
	p := b.MustBuild()
	p.InitMem = append(p.InitMem, InitChunk{Addr: 0x3000, Data: u64le(uint64(p.Labels["case0"]))})
	it := NewInterp(p)
	if err := it.Run(1000); err != nil {
		t.Fatal(err)
	}
	if it.Regs[4] != 99 || it.Regs[5] != 7 || it.Regs[11] != 123 {
		t.Fatalf("regs = r4:%d r5:%d r11:%d", it.Regs[4], it.Regs[5], it.Regs[11])
	}
}

func u64le(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func TestInterpRMW(t *testing.T) {
	p := NewBuilder("t").
		Li(1, 0x4000).
		Li(2, 5).
		RMW(8, 3, 1, 2).
		RMW(8, 4, 1, 2).
		Halt().
		MustBuild()
	it := NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if it.Regs[3] != 0 || it.Regs[4] != 5 {
		t.Fatalf("rmw results %d,%d want 0,5", it.Regs[3], it.Regs[4])
	}
	if got := it.Mem.Read(0x4000, 8); got != 10 {
		t.Fatalf("mem = %d, want 10", got)
	}
}

func TestInterpPrivLoadFaultsToHandler(t *testing.T) {
	p := NewBuilder("t").
		Li(1, 0x5000).
		LdPriv(8, 2, 1, 0).
		Li(3, 1). // skipped: fault redirects
		Halt().
		Label("handler").
		Li(4, 0xDEAD).
		Halt().
		Handler("handler").
		MustBuild()
	it := NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if it.Regs[2] != 0 {
		t.Fatalf("privileged load modified architectural state: r2=%d", it.Regs[2])
	}
	if it.Regs[3] != 0 {
		t.Fatal("instruction after fault executed")
	}
	if it.Regs[4] != 0xDEAD {
		t.Fatal("handler did not run")
	}
	if it.Faults != 1 {
		t.Fatalf("faults = %d, want 1", it.Faults)
	}
}

func TestInterpPrivLoadHaltsWithoutHandler(t *testing.T) {
	p := NewBuilder("t").
		Li(1, 0x5000).
		LdPriv(8, 2, 1, 0).
		Li(3, 1).
		Halt().
		MustBuild()
	it := NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if !it.Halted || it.Regs[3] != 0 {
		t.Fatal("unhandled fault did not halt")
	}
}

func TestInterpRunaway(t *testing.T) {
	p := NewBuilder("t").Label("x").Jmp("x").MustBuild()
	it := NewInterp(p)
	if err := it.Run(100); err != ErrRunaway {
		t.Fatalf("err = %v, want ErrRunaway", err)
	}
}

func TestInstString(t *testing.T) {
	// Smoke-test the formatter on every op so broken cases show up.
	insts := []Inst{
		{Op: OpLoad, Rd: 1, Rs1: 2, Imm: 8, Size: 4},
		{Op: OpLoad, Rd: 1, Rs1: 2, Imm: 8, Size: 8, Priv: true},
		{Op: OpStore, Rs1: 2, Rs2: 3, Imm: -8, Size: 8},
		{Op: OpRMW, Rd: 1, Rs1: 2, Rs2: 3, Size: 8},
		{Op: OpPrefetch, Rs1: 4, Imm: 64},
		{Op: OpBeq, Rs1: 1, Rs2: 2, Target: 7},
		{Op: OpJmp, Target: 3},
		{Op: OpCall, Rd: 30, Target: 9},
		{Op: OpJmpI, Rs1: 5},
		{Op: OpRet, Rs1: 30},
		{Op: OpLui, Rd: 3, Imm: 42},
		{Op: OpAddI, Rd: 3, Rs1: 4, Imm: -1},
		{Op: OpAdd, Rd: 3, Rs1: 4, Rs2: 5},
		{Op: OpFence},
		{Op: OpHalt},
	}
	for _, in := range insts {
		if s := in.String(); s == "" {
			t.Errorf("empty String() for %v", in.Op)
		}
	}
}

func TestBuilderExtendedOps(t *testing.T) {
	p := NewBuilder("ext").
		LdSafe(8, 1, 2, 16).
		Flush(3, 64).
		Cycle(4, 1).
		Halt().
		MustBuild()
	if !p.Insts[0].Safe || p.Insts[0].Op != OpLoad {
		t.Error("LdSafe lost its annotation")
	}
	if p.Insts[1].Op != OpFlush || p.Insts[1].Imm != 64 {
		t.Error("Flush encoding wrong")
	}
	if p.Insts[2].Op != OpCycle || p.Insts[2].Rd != 4 || p.Insts[2].Rs1 != 1 {
		t.Error("Cycle encoding wrong")
	}
	// Both execute as no-ops/zero in the golden model.
	it := NewInterp(p)
	if err := it.Run(10); err != nil {
		t.Fatal(err)
	}
	if it.Regs[4] != 0 {
		t.Error("interp OpCycle must read 0")
	}
	// Formatter smoke test for the new ops.
	for _, in := range []Inst{{Op: OpFlush, Rs1: 1}, {Op: OpCycle, Rd: 2, Rs1: 3}} {
		if in.String() == "" {
			t.Error("empty format")
		}
	}
}

// TestALUEdgeSemantics pins the agreed divide/multiply/shift edge cases.
// EvalALU is shared by the interpreter and the core's exec unit, so these
// rows define the architecture for both sides (RISC-V M-extension rules:
// divide by zero yields all-ones for quotients and the dividend for
// remainders; signed MinInt64 / -1 wraps; multiplies and shifts wrap
// modulo 2^64 with shift counts masked to 6 bits).
func TestALUEdgeSemantics(t *testing.T) {
	const minI64 = uint64(1) << 63 // math.MinInt64 as a bit pattern
	cases := []struct {
		name string
		op   Op
		a, b uint64
		want uint64
	}{
		{"div-by-zero", OpDiv, 7, 0, ^uint64(0)},
		{"div-zero-by-zero", OpDiv, 0, 0, ^uint64(0)},
		{"div-basic", OpDiv, 100, 7, 14},
		{"divs-by-zero", OpDivS, 7, 0, ^uint64(0)},
		{"divs-neg-by-zero", OpDivS, negU64(7), 0, ^uint64(0)},
		{"divs-overflow-wraps", OpDivS, minI64, ^uint64(0), minI64},
		{"divs-basic-neg", OpDivS, negU64(100), 7, negU64(14)},
		{"divs-neg-divisor", OpDivS, 100, negU64(7), negU64(14)},
		{"remu-by-zero-yields-dividend", OpRemU, 12345, 0, 12345},
		{"remu-basic", OpRemU, 100, 7, 2},
		{"remu-max", OpRemU, ^uint64(0), minI64, minI64 - 1},
		{"mul-wraps", OpMul, minI64, 2, 0},
		{"mul-neg-identity", OpMul, ^uint64(0), ^uint64(0), 1},
		{"shl-count-masked", OpShl, 1, 64, 1},
		{"shl-count-63", OpShl, 1, 63, minI64},
		{"shr-count-masked", OpShr, minI64, 65, minI64 >> 1},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b, 0); got != c.want {
			t.Errorf("%s: EvalALU(%v, %#x, %#x) = %#x, want %#x",
				c.name, c.op, c.a, c.b, got, c.want)
		}
	}
	// The same rows must hold end-to-end through the interpreter, which
	// proves the golden model routes these ops through EvalALU.
	for _, c := range cases {
		p := NewBuilder("edge").
			Li(1, c.a).
			Li(2, c.b).
			MustBuild()
		p.Insts = append(p.Insts, Inst{Op: c.op, Rd: 3, Rs1: 1, Rs2: 2}, Inst{Op: OpHalt})
		it := NewInterp(p)
		if err := it.Run(10); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if it.Regs[3] != c.want {
			t.Errorf("%s: interp got %#x, want %#x", c.name, it.Regs[3], c.want)
		}
	}
}

// TestAlignAddr pins the natural-alignment rule shared by the interpreter
// and the core's address generation.
func TestAlignAddr(t *testing.T) {
	cases := []struct {
		addr uint64
		size uint8
		want uint64
	}{
		{0x1003, 1, 0x1003},
		{0x1003, 2, 0x1002},
		{0x1003, 4, 0x1000},
		{0x1007, 8, 0x1000},
		{0x1038, 8, 0x1038}, // already aligned
		{0x103f, 8, 0x1038}, // would straddle a line unaligned
		{0x1040, 4, 0x1040},
		{0xffffffffffffffff, 8, 0xfffffffffffffff8},
		{0x55, 0, 0x55}, // size-0 (prefetch-style Inst) passes through
	}
	for _, c := range cases {
		if got := AlignAddr(c.addr, c.size); got != c.want {
			t.Errorf("AlignAddr(%#x, %d) = %#x, want %#x", c.addr, c.size, got, c.want)
		}
	}
	// Aligned accesses never straddle a 64-byte line: the LSQ forwarding
	// masks and the speculative buffer rely on this.
	for size := uint8(1); size <= 8; size *= 2 {
		for addr := uint64(0); addr < 256; addr++ {
			a := AlignAddr(addr, size)
			if a/64 != (a+uint64(size)-1)/64 {
				t.Fatalf("AlignAddr(%#x, %d) = %#x straddles a line", addr, size, a)
			}
		}
	}
}

// TestInterpAppliesAlignment checks loads, stores, and RMWs all mask their
// effective address identically.
func TestInterpAppliesAlignment(t *testing.T) {
	p := NewBuilder("align").
		Li(1, 0x1000).
		Li(2, 0x1122334455667788).
		MustBuild()
	p.Insts = append(p.Insts,
		Inst{Op: OpStore, Rs1: 1, Rs2: 2, Imm: 5, Size: 8}, // st.8 -> 0x1000
		Inst{Op: OpLoad, Rd: 3, Rs1: 1, Imm: 3, Size: 8},   // ld.8 <- 0x1000
		Inst{Op: OpLoad, Rd: 4, Rs1: 1, Imm: 6, Size: 4},   // ld.4 <- 0x1004
		Inst{Op: OpRMW, Rd: 5, Rs1: 1, Rs2: 0, Size: 8},    // rmw @0x1000 (aligned)
		Inst{Op: OpHalt})
	it := NewInterp(p)
	if err := it.Run(20); err != nil {
		t.Fatal(err)
	}
	if it.Regs[3] != 0x1122334455667788 {
		t.Errorf("aligned ld.8 got %#x", it.Regs[3])
	}
	if it.Regs[4] != 0x11223344 {
		t.Errorf("aligned ld.4 got %#x", it.Regs[4])
	}
	if it.Regs[5] != 0x1122334455667788 {
		t.Errorf("rmw old value got %#x", it.Regs[5])
	}
}

func negU64(v uint64) uint64 { return -v }

// TestBuilderLiLabel covers the dispatch-slot idiom the indirect-branch
// attack templates rely on: LiLabel materializes a forward label's
// instruction index as an immediate at Build time, the program stores it
// to memory, reloads it, and jumps through it with JmpI.
func TestBuilderLiLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Li(3, 0x2000).
		LiLabel(1, "target").
		St(8, 3, 0, 1). // dispatch slot holds target's pc
		Ld(8, 2, 3, 0).
		JmpI(2).
		Li(5, 99). // skipped: the jump must hop over it
		Halt().
		Label("target").
		Li(5, 7).
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(p.Labels["target"])
	if got := p.Insts[1].Imm; got != want {
		t.Fatalf("LiLabel patched Imm = %d, want label index %d", got, want)
	}
	it := NewInterp(p)
	if err := it.Run(100); err != nil {
		t.Fatal(err)
	}
	if it.Regs[5] != 7 {
		t.Fatalf("r5 = %d, want 7 (indirect jump through the dispatch slot)", it.Regs[5])
	}
	if _, err := NewBuilder("t").LiLabel(1, "nowhere").Halt().Build(); err == nil {
		t.Fatal("LiLabel to an undefined label not reported")
	}
}
