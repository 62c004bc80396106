// Package isa defines the small RISC instruction set executed by the
// simulator: instruction encodings, a label-resolving program builder, a
// sparse byte-addressed memory image, and a functional (golden-model)
// interpreter used to cross-check the out-of-order core.
//
// The ISA is deliberately minimal but complete enough to express every
// behaviour the InvisiSpec paper depends on: data-dependent conditional
// branches (mis-speculation sources), indirect jumps (BTB targets), calls and
// returns (RAS), loads and stores of 1/2/4/8 bytes, fences,
// acquire/release synchronisation for release consistency, atomic
// read-modify-writes, software prefetches, and privileged loads that fault at
// retirement (Meltdown-style exception sources).
package isa

import "fmt"

// NumRegs is the number of architectural integer registers. Register 0 is a
// normal general-purpose register (it is not hard-wired to zero).
const NumRegs = 32

// Op enumerates instruction opcodes.
type Op uint8

// Opcode values.
const (
	OpNop Op = iota
	// ALU register-register: Rd = Rs1 <op> Rs2.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpMul
	OpDiv // unsigned divide; divide by zero yields all-ones (RISC-V DIVU)
	// OpDivS is signed divide with RISC-V edge semantics: divide by zero
	// yields all-ones; MinInt64 / -1 wraps to MinInt64 (no trap).
	OpDivS
	// OpRemU is unsigned remainder; remainder by zero yields the dividend
	// (RISC-V REMU).
	OpRemU
	OpSlt // set-less-than (unsigned): Rd = (Rs1 < Rs2) ? 1 : 0
	// ALU register-immediate: Rd = Rs1 <op> Imm.
	OpAddI
	OpAndI
	OpShlI
	OpShrI
	// OpLui loads a 64-bit immediate: Rd = Imm.
	OpLui
	// Memory. Effective address = AlignAddr(Rs1 + Imm, Size); accesses are
	// naturally aligned by construction. Size gives the width in bytes.
	OpLoad  // Rd = Mem[Rs1+Imm]
	OpStore // Mem[Rs1+Imm] = Rs2
	// Control flow. Direct targets are instruction indices resolved from labels.
	OpBeq // branch to Target if Rs1 == Rs2
	OpBne // branch to Target if Rs1 != Rs2
	OpBlt // branch to Target if Rs1 < Rs2 (unsigned)
	OpBge // branch to Target if Rs1 >= Rs2 (unsigned)
	OpJmp // unconditional direct jump to Target
	OpJmpI
	// OpJmpI is an indirect jump: PC = value of Rs1 (an instruction index).
	OpCall // Rd = PC+1; PC = Target (predicted via BTB, pushes RAS)
	OpRet  // PC = value of Rs1 (predicted via RAS)
	// Synchronisation.
	OpFence   // full fence: completes when all prior accesses performed
	OpAcquire // RC acquire barrier: later accesses may not move above it
	OpRelease // RC release barrier: completes after all prior accesses performed
	OpRMW     // atomic fetch-and-add: Rd = Mem[Rs1]; Mem[Rs1] += Rs2 (fence semantics)
	// OpPrefetch is a software prefetch of the line containing Rs1+Imm.
	OpPrefetch
	// OpFlush evicts the line containing Rs1+Imm from every cache
	// (clflush-style); it executes non-speculatively at the ROB head.
	OpFlush
	// OpCycle reads the cycle counter into Rd once Rs1 is available
	// (rdtsc-style, with an explicit serializing dependence — the timing
	// primitive cache side-channel attacks rely on). The functional
	// interpreter, which has no clock, returns 0.
	OpCycle
	// OpHalt stops the hardware thread.
	OpHalt
	numOps
)

// NumOps is the number of defined opcodes (exported for exhaustive tables in
// tests and the conformance generator).
const NumOps = int(numOps)

var opNames = [numOps]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpShl: "shl", OpShr: "shr", OpMul: "mul", OpDiv: "div",
	OpDivS: "divs", OpRemU: "remu", OpSlt: "slt", OpAddI: "addi", OpAndI: "andi", OpShlI: "shli",
	OpShrI: "shri", OpLui: "lui", OpLoad: "ld", OpStore: "st",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge", OpJmp: "jmp",
	OpJmpI: "jmpi", OpCall: "call", OpRet: "ret", OpFence: "fence",
	OpAcquire: "acquire", OpRelease: "release", OpRMW: "rmw",
	OpPrefetch: "prefetch", OpFlush: "flush", OpCycle: "cycle", OpHalt: "halt",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsALU reports whether the opcode is executed by an arithmetic unit.
func (o Op) IsALU() bool {
	switch o {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv,
		OpDivS, OpRemU, OpSlt, OpAddI, OpAndI, OpShlI, OpShrI, OpLui, OpNop:
		return true
	}
	return false
}

// IsBranch reports whether the opcode redirects control flow.
func (o Op) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpJmpI, OpCall, OpRet:
		return true
	}
	return false
}

// IsCondBranch reports whether the opcode is a conditional direct branch.
func (o Op) IsCondBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// IsMem reports whether the opcode accesses data memory (including
// prefetches and atomics).
func (o Op) IsMem() bool {
	switch o {
	case OpLoad, OpStore, OpRMW, OpPrefetch, OpFlush:
		return true
	}
	return false
}

// IsFence reports whether the opcode has ordering (fence-like) semantics.
func (o Op) IsFence() bool {
	switch o {
	case OpFence, OpAcquire, OpRelease, OpRMW:
		return true
	}
	return false
}

// HasDest reports whether the opcode writes a destination register.
func (o Op) HasDest() bool {
	switch o {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv,
		OpDivS, OpRemU, OpSlt, OpAddI, OpAndI, OpShlI, OpShrI, OpLui, OpLoad,
		OpCall, OpRMW, OpCycle:
		return true
	}
	return false
}

// Inst is one static instruction.
type Inst struct {
	Op     Op
	Rd     uint8 // destination register
	Rs1    uint8 // first source register (base register for memory ops)
	Rs2    uint8 // second source register (data register for stores)
	Imm    int64 // immediate / address offset
	Target int   // direct branch/jump/call target (instruction index)
	Size   uint8 // memory access width in bytes (1, 2, 4 or 8)
	Priv   bool  // privileged load: raises an exception at retirement
	// Safe marks a load statically proven unable to leak (e.g. its index
	// is masked in-bounds to non-secret data). The paper's §XI names
	// exploiting such proofs as future work; machines with
	// TrustSafeAnnotations set execute these loads as normal accesses
	// under InvisiSpec.
	Safe bool
}

// String renders the instruction in a readable assembly-like form.
func (in Inst) String() string {
	switch {
	case in.Op == OpLoad:
		p := ""
		if in.Priv {
			p = ".priv"
		}
		return fmt.Sprintf("ld%s.%d r%d, [r%d%+d]", p, in.Size, in.Rd, in.Rs1, in.Imm)
	case in.Op == OpStore:
		return fmt.Sprintf("st.%d [r%d%+d], r%d", in.Size, in.Rs1, in.Imm, in.Rs2)
	case in.Op == OpRMW:
		return fmt.Sprintf("rmw.%d r%d, [r%d], r%d", in.Size, in.Rd, in.Rs1, in.Rs2)
	case in.Op == OpPrefetch:
		return fmt.Sprintf("prefetch [r%d%+d]", in.Rs1, in.Imm)
	case in.Op == OpFlush:
		return fmt.Sprintf("flush [r%d%+d]", in.Rs1, in.Imm)
	case in.Op.IsCondBranch():
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.Rs1, in.Rs2, in.Target)
	case in.Op == OpJmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	case in.Op == OpCall:
		return fmt.Sprintf("call r%d, @%d", in.Rd, in.Target)
	case in.Op == OpJmpI, in.Op == OpRet:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs1)
	case in.Op == OpLui:
		return fmt.Sprintf("lui r%d, %d", in.Rd, in.Imm)
	case in.Op == OpAddI, in.Op == OpAndI, in.Op == OpShlI, in.Op == OpShrI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case in.Op.IsALU() && in.Op != OpNop:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	default:
		return in.Op.String()
	}
}

// EvalALU computes the result of an ALU opcode over the given operand values.
// For immediate forms, b is ignored and the instruction's immediate is used.
func EvalALU(op Op, a, b uint64, imm int64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return ^uint64(0)
		}
		return a / b
	case OpDivS:
		if b == 0 {
			return ^uint64(0)
		}
		// Go defines MinInt64 / -1 to wrap to MinInt64 for non-constant
		// operands, matching RISC-V's overflow rule, so no special case.
		return uint64(int64(a) / int64(b))
	case OpRemU:
		if b == 0 {
			return a
		}
		return a % b
	case OpSlt:
		if a < b {
			return 1
		}
		return 0
	case OpAddI:
		return a + uint64(imm)
	case OpAndI:
		return a & uint64(imm)
	case OpShlI:
		return a << (uint64(imm) & 63)
	case OpShrI:
		return a >> (uint64(imm) & 63)
	case OpLui:
		return uint64(imm)
	case OpNop:
		return 0
	}
	panic(fmt.Sprintf("isa: EvalALU on non-ALU op %v", op))
}

// AlignAddr aligns a computed memory address down to the access width's
// natural boundary. The ISA defines every 1/2/4/8-byte access as naturally
// aligned: hardware that tracks data at cache-line granularity (the LSQ's
// forwarding masks, the speculative buffer's 64-byte lines) relies on no
// access straddling a line, and the golden interpreter applies the same
// masking so both sides compute identical effective addresses.
func AlignAddr(addr uint64, size uint8) uint64 {
	if size == 0 {
		return addr
	}
	return addr &^ (uint64(size) - 1)
}

// BranchTaken evaluates a conditional branch's outcome over operand values.
func BranchTaken(op Op, a, b uint64) bool {
	switch op {
	case OpBeq:
		return a == b
	case OpBne:
		return a != b
	case OpBlt:
		return a < b
	case OpBge:
		return a >= b
	}
	panic(fmt.Sprintf("isa: BranchTaken on non-conditional op %v", op))
}

// Program is an assembled program: a static instruction sequence plus the
// initial data image and metadata.
type Program struct {
	Name    string
	Insts   []Inst
	Entry   int // initial PC (instruction index)
	Handler int // exception handler PC, or -1 to halt on exceptions
	// InitMem holds the initial contents of data memory as (address, bytes)
	// pairs, applied in order when a machine loads the program.
	InitMem []InitChunk
	// Labels maps label names to instruction indices (useful in tests).
	Labels map[string]int
	// BlockLen is the bb metadata extension: BlockLen[i] > 0 marks
	// instruction i as a basic-block leader and gives the block's length
	// in instructions; 0 marks a block-interior instruction. The builder
	// computes it for every assembled program (ComputeBB); hand-built
	// programs may leave it nil, in which case consumers fall back to the
	// static computation (BlockLeaders). The metadata is purely a
	// front-end hint — the golden interpreter ignores it, so programs
	// with and without it are architecturally identical.
	BlockLen []int
}

// InitChunk is an initial-data segment of a program image.
type InitChunk struct {
	Addr uint64
	Data []byte
}

// At returns the instruction at pc, or a halt if pc is out of range (fetch
// down a wrong path may run off the end of the program).
func (p *Program) At(pc int) Inst {
	if pc < 0 || pc >= len(p.Insts) {
		return Inst{Op: OpHalt}
	}
	return p.Insts[pc]
}

// Valid reports whether pc addresses a real instruction.
func (p *Program) Valid(pc int) bool { return pc >= 0 && pc < len(p.Insts) }

// BlockLeaders returns, per instruction, whether it starts a basic block.
// When the program carries bb metadata (BlockLen, set by the builder) the
// leaders are read from it; otherwise they are computed from static
// control flow: the entry point, the exception handler, every label
// (labels are the only legal indirect-jump targets in builder-assembled
// programs), every direct branch/jump/call target, and the instruction
// after every control-flow instruction (a branch always terminates its
// block). Dynamic indirect targets that coincide with none of these are
// treated as block-interior — a conservative under-approximation for
// schemes that stall at block boundaries, never an architectural change.
func (p *Program) BlockLeaders() []bool {
	n := len(p.Insts)
	if n == 0 {
		return nil
	}
	leader := make([]bool, n)
	if p.BlockLen != nil {
		for i := 0; i < n && i < len(p.BlockLen); i++ {
			leader[i] = p.BlockLen[i] > 0
		}
		return leader
	}
	mark := func(i int) {
		if i >= 0 && i < n {
			leader[i] = true
		}
	}
	mark(p.Entry)
	mark(p.Handler)
	for _, idx := range p.Labels {
		mark(idx)
	}
	for i, in := range p.Insts {
		if !in.Op.IsBranch() {
			continue
		}
		mark(i + 1)
		switch in.Op {
		case OpJmpI, OpRet:
			// Indirect: target unknown statically (labels cover the
			// builder's jump tables; return sites are call.next, already
			// marked as post-control leaders).
		default:
			mark(in.Target)
		}
	}
	return leader
}

// ComputeBB fills in the bb metadata from the program's block leaders:
// BlockLen[i] is the distance from leader i to the next leader (or the
// end of the program), 0 for block-interior instructions. The builder
// calls it on every assembled program; it is idempotent and safe to call
// on hand-built programs too.
func (p *Program) ComputeBB() {
	p.BlockLen = nil // force BlockLeaders to recompute from control flow
	leaders := p.BlockLeaders()
	p.BlockLen = make([]int, len(leaders))
	for i, isLeader := range leaders {
		if !isLeader {
			continue
		}
		end := i + 1
		for end < len(leaders) && !leaders[end] {
			end++
		}
		p.BlockLen[i] = end - i
	}
}
