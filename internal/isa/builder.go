package isa

import (
	"fmt"
	"sort"
)

// Builder assembles a Program from a fluent instruction stream. Branch
// targets are written as label names and resolved at Build time; errors
// (unknown labels, bad sizes) are accumulated and reported by Build.
type Builder struct {
	name    string
	insts   []Inst
	labels  map[string]int
	fixups  []fixup
	chunks  []InitChunk
	handler string
	errs    []error
}

type fixup struct {
	inst  int
	label string
	// imm selects which field the resolved label index patches: the
	// branch Target (false, the default) or the Imm of an OpLui (true,
	// emitted by LiLabel so code addresses can be stored to memory and
	// jumped through indirectly).
	imm bool
}

// NewBuilder returns an empty program builder.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: map[string]int{}}
}

// PC returns the index the next emitted instruction will have.
func (b *Builder) PC() int { return len(b.insts) }

// Label binds name to the next instruction's index.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: duplicate label %q", name))
	}
	b.labels[name] = len(b.insts)
	return b
}

// Handler designates the label of the exception handler.
func (b *Builder) Handler(label string) *Builder {
	b.handler = label
	return b
}

// Data registers an initial memory image chunk at addr.
func (b *Builder) Data(addr uint64, data []byte) *Builder {
	c := InitChunk{Addr: addr, Data: append([]byte(nil), data...)}
	b.chunks = append(b.chunks, c)
	return b
}

// DataU64 registers a sequence of little-endian 64-bit words at addr.
func (b *Builder) DataU64(addr uint64, words ...uint64) *Builder {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(w >> (8 * j))
		}
	}
	return b.Data(addr, buf)
}

func (b *Builder) emit(in Inst) *Builder {
	b.insts = append(b.insts, in)
	return b
}

func (b *Builder) emitBranch(in Inst, label string) *Builder {
	b.fixups = append(b.fixups, fixup{inst: len(b.insts), label: label})
	return b.emit(in)
}

func (b *Builder) checkSize(size uint8) uint8 {
	switch size {
	case 1, 2, 4, 8:
		return size
	}
	b.errs = append(b.errs, fmt.Errorf("isa: invalid access size %d", size))
	return 8
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Inst{Op: OpNop}) }

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpAdd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpSub, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpAnd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpOr, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpXor, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpMul, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Div emits rd = rs1 / rs2 (all-ones on divide by zero).
func (b *Builder) Div(rd, rs1, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpDiv, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// DivS emits rd = rs1 / rs2 signed (all-ones on divide by zero; MinInt64/-1
// wraps to MinInt64).
func (b *Builder) DivS(rd, rs1, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpDivS, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AddI emits rd = rs1 + imm.
func (b *Builder) AddI(rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Inst{Op: OpAddI, Rd: rd, Rs1: rs1, Imm: imm})
}

// AndI emits rd = rs1 & imm.
func (b *Builder) AndI(rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Inst{Op: OpAndI, Rd: rd, Rs1: rs1, Imm: imm})
}

// ShlI emits rd = rs1 << imm.
func (b *Builder) ShlI(rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Inst{Op: OpShlI, Rd: rd, Rs1: rs1, Imm: imm})
}

// ShrI emits rd = rs1 >> imm.
func (b *Builder) ShrI(rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Inst{Op: OpShrI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Li loads the 64-bit immediate v into rd.
func (b *Builder) Li(rd uint8, v uint64) *Builder {
	return b.emit(Inst{Op: OpLui, Rd: rd, Imm: int64(v)})
}

// LiLabel loads the instruction index of label into rd, resolved at Build
// time. Combined with St/Ld and JmpI/Ret it lets a program materialize code
// addresses as data — the dispatch-slot idiom the indirect-branch attack
// templates use.
func (b *Builder) LiLabel(rd uint8, label string) *Builder {
	b.fixups = append(b.fixups, fixup{inst: len(b.insts), label: label, imm: true})
	return b.emit(Inst{Op: OpLui, Rd: rd})
}

// Mov copies rs into rd.
func (b *Builder) Mov(rd, rs uint8) *Builder { return b.AddI(rd, rs, 0) }

// Ld emits rd = Mem[rs1+imm] with the given size in bytes.
func (b *Builder) Ld(size uint8, rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Inst{Op: OpLoad, Rd: rd, Rs1: rs1, Imm: imm, Size: b.checkSize(size)})
}

// LdSafe emits a load annotated as statically proven safe to execute
// speculatively (see Inst.Safe).
func (b *Builder) LdSafe(size uint8, rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Inst{Op: OpLoad, Rd: rd, Rs1: rs1, Imm: imm, Size: b.checkSize(size), Safe: true})
}

// LdPriv emits a privileged load that raises an exception at retirement.
func (b *Builder) LdPriv(size uint8, rd, rs1 uint8, imm int64) *Builder {
	return b.emit(Inst{Op: OpLoad, Rd: rd, Rs1: rs1, Imm: imm, Size: b.checkSize(size), Priv: true})
}

// St emits Mem[rs1+imm] = rs2 with the given size in bytes.
func (b *Builder) St(size uint8, rs1 uint8, imm int64, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpStore, Rs1: rs1, Rs2: rs2, Imm: imm, Size: b.checkSize(size)})
}

// Beq branches to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 uint8, label string) *Builder {
	return b.emitBranch(Inst{Op: OpBeq, Rs1: rs1, Rs2: rs2}, label)
}

// Bne branches to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 uint8, label string) *Builder {
	return b.emitBranch(Inst{Op: OpBne, Rs1: rs1, Rs2: rs2}, label)
}

// Blt branches to label when rs1 < rs2 (unsigned).
func (b *Builder) Blt(rs1, rs2 uint8, label string) *Builder {
	return b.emitBranch(Inst{Op: OpBlt, Rs1: rs1, Rs2: rs2}, label)
}

// Bge branches to label when rs1 >= rs2 (unsigned).
func (b *Builder) Bge(rs1, rs2 uint8, label string) *Builder {
	return b.emitBranch(Inst{Op: OpBge, Rs1: rs1, Rs2: rs2}, label)
}

// Jmp jumps unconditionally to label.
func (b *Builder) Jmp(label string) *Builder {
	return b.emitBranch(Inst{Op: OpJmp}, label)
}

// JmpI jumps to the instruction index held in rs1.
func (b *Builder) JmpI(rs1 uint8) *Builder {
	return b.emit(Inst{Op: OpJmpI, Rs1: rs1})
}

// Call jumps to label, writing the return address (PC+1) into rd.
func (b *Builder) Call(rd uint8, label string) *Builder {
	return b.emitBranch(Inst{Op: OpCall, Rd: rd}, label)
}

// Ret jumps to the return address held in rs1.
func (b *Builder) Ret(rs1 uint8) *Builder {
	return b.emit(Inst{Op: OpRet, Rs1: rs1})
}

// Fence emits a full memory fence.
func (b *Builder) Fence() *Builder { return b.emit(Inst{Op: OpFence}) }

// Acquire emits an RC acquire barrier.
func (b *Builder) Acquire() *Builder { return b.emit(Inst{Op: OpAcquire}) }

// Release emits an RC release barrier.
func (b *Builder) Release() *Builder { return b.emit(Inst{Op: OpRelease}) }

// RMW emits an atomic fetch-and-add: rd = Mem[rs1]; Mem[rs1] += rs2.
func (b *Builder) RMW(size uint8, rd, rs1, rs2 uint8) *Builder {
	return b.emit(Inst{Op: OpRMW, Rd: rd, Rs1: rs1, Rs2: rs2, Size: b.checkSize(size)})
}

// Prefetch emits a software prefetch of the line containing rs1+imm.
func (b *Builder) Prefetch(rs1 uint8, imm int64) *Builder {
	return b.emit(Inst{Op: OpPrefetch, Rs1: rs1, Imm: imm})
}

// Flush emits a clflush of the line containing rs1+imm.
func (b *Builder) Flush(rs1 uint8, imm int64) *Builder {
	return b.emit(Inst{Op: OpFlush, Rs1: rs1, Imm: imm})
}

// Cycle emits rd = <current cycle>, ordered after rs1 becomes available.
func (b *Builder) Cycle(rd, rs1 uint8) *Builder {
	return b.emit(Inst{Op: OpCycle, Rd: rd, Rs1: rs1})
}

// Halt stops the hardware thread.
func (b *Builder) Halt() *Builder { return b.emit(Inst{Op: OpHalt}) }

// Build resolves labels and returns the assembled program.
func (b *Builder) Build() (*Program, error) {
	insts := append([]Inst(nil), b.insts...)
	for _, f := range b.fixups {
		pc, ok := b.labels[f.label]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("isa: undefined label %q", f.label))
			continue
		}
		if f.imm {
			insts[f.inst].Imm = int64(pc)
		} else {
			insts[f.inst].Target = pc
		}
	}
	handler := -1
	if b.handler != "" {
		pc, ok := b.labels[b.handler]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("isa: undefined handler label %q", b.handler))
		} else {
			handler = pc
		}
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	chunks := append([]InitChunk(nil), b.chunks...)
	sort.SliceStable(chunks, func(i, j int) bool { return chunks[i].Addr < chunks[j].Addr })
	p := &Program{
		Name:    b.name,
		Insts:   insts,
		Handler: handler,
		InitMem: chunks,
		Labels:  labels,
	}
	// Every assembled program carries the bb metadata extension
	// (basic-block leader/length marks); ISA-assisted defenses consume it
	// in the front end, everything else ignores it.
	p.ComputeBB()
	return p, nil
}

// MustBuild is Build that panics on assembly errors; it is intended for
// statically-known programs in examples and tests.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
