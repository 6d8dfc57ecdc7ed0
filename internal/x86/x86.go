// Package x86 implements an x86-64 machine-code model: a length
// disassembler sufficient for linear disassembly of compiler-generated
// code, an assembler for the instruction subset used by trampolines and
// the synthetic workload generator, and instruction classification
// (branches, calls, memory writes) used to select patch points.
//
// The decoder is deliberately a *length and shape* decoder in the style
// the paper requires: E9Patch itself never needs full semantics, only
// instruction boundaries, byte values, branch displacements and
// RIP-relative displacement locations. Shape is that length decoder:
// one table-driven walk (table.go) from the bytes at an offset to the
// instruction's length and attribute flags, which is all that recovery
// asks at every offset it visits. DecodeInto is the same walk plus the
// operand fields (where the displacement, the immediate and the branch
// displacement lie, which registers address memory) for the few
// instructions a selector or the patcher looks into; AttrsOf is its
// attribute half alone, for an instruction whose length is already
// known.
package x86

import "fmt"

// Reg identifies an x86-64 general-purpose register, or RIP/NoReg.
type Reg uint8

// General purpose registers in encoding order (the low 3 bits are the
// ModRM register field; bit 3 is the REX extension bit).
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	// RIP is a pseudo register for RIP-relative addressing.
	RIP
	// NoReg marks an absent register operand.
	NoReg
)

var regNames = [...]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
	"rip", "<none>",
}

// String returns the conventional AT&T-style name without the % sigil.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// lowBits returns the 3-bit ModRM field encoding of the register.
func (r Reg) lowBits() byte { return byte(r) & 7 }

// isExt reports whether the register needs a REX extension bit.
func (r Reg) isExt() bool { return r >= R8 && r <= R15 }

// Attr is a bit set of decoded instruction attributes.
type Attr uint32

// Instruction attribute flags. Shape flags describe the encoding;
// semantic flags drive patch-point selection and trampoline
// construction.
const (
	// AttrModRM: the opcode is followed by a ModRM byte.
	AttrModRM Attr = 1 << iota
	// AttrImm8: one immediate byte.
	AttrImm8
	// AttrImm16: two immediate bytes.
	AttrImm16
	// AttrImmZ: 4 immediate bytes (2 with the 0x66 prefix).
	AttrImmZ
	// AttrImmV: operand-sized immediate — 8 bytes with REX.W,
	// 2 with 0x66, otherwise 4 (the movabs family).
	AttrImmV
	// AttrRel8: one-byte branch displacement.
	AttrRel8
	// AttrRel32: four-byte branch displacement.
	AttrRel32
	// AttrMoffs: address-sized absolute moffs operand (8 bytes in
	// 64-bit mode, 4 with the 0x67 prefix).
	AttrMoffs
	// AttrGroup3: 0xF6/0xF7 — immediate present only for /0 and /1.
	AttrGroup3
	// AttrInvalid: the byte is not a valid instruction in 64-bit mode.
	AttrInvalid
	// AttrJump: unconditional jump (direct or indirect).
	AttrJump
	// AttrCondJump: conditional jump.
	AttrCondJump
	// AttrCall: call (direct or indirect).
	AttrCall
	// AttrRet: near or far return.
	AttrRet
	// AttrMemDst: the ModRM r/m operand is (or may be) written when it
	// addresses memory.
	AttrMemDst
	// AttrStop: control flow does not fall through (jmp/ret/ud2/hlt…).
	AttrStop
	// AttrInt3: the 0xCC breakpoint instruction.
	AttrInt3
)

// Inst describes one decoded instruction.
type Inst struct {
	// Addr is the virtual address of the first byte.
	Addr uint64
	// Len is the total encoded length in bytes.
	Len int
	// Bytes aliases the decoded machine code (length Len).
	Bytes []byte

	// Opcode is the primary opcode byte (the byte after 0x0F for
	// two-byte opcodes). TwoByte reports the 0x0F escape.
	Opcode  byte
	TwoByte bool

	// Attrs are the decoded attribute flags.
	Attrs Attr

	// ModRM is the ModRM byte when AttrModRM is set.
	ModRM byte

	// Rex is the REX prefix byte (0 when absent).
	Rex byte

	// NPrefix counts legacy-prefix and REX bytes before the opcode.
	NPrefix int

	// RelOff/RelSize locate a branch displacement inside Bytes
	// (RelSize is 0, 1 or 4).
	RelOff  int
	RelSize int

	// ImmOff/ImmSize locate the immediate operand inside Bytes
	// (ImmSize is 0 when there is no immediate).
	ImmOff  int
	ImmSize int

	// DispOff/DispSize locate the ModRM displacement inside Bytes.
	// RIPRel reports RIP-relative addressing (DispSize == 4).
	DispOff  int
	DispSize int
	RIPRel   bool

	// MemBase/MemIndex are the memory-operand registers (NoReg when
	// the operand is not memory or the component is absent).
	MemBase  Reg
	MemIndex Reg
	// MemScale is the SIB scale factor (1, 2, 4, 8) when MemIndex is
	// present.
	MemScale uint8
}

// MemOperand reconstructs the instruction's memory operand, if any.
func (i *Inst) MemOperand() (Mem, bool) {
	if !i.HasMem() {
		return Mem{}, false
	}
	if i.RIPRel {
		return MRIP(int32(i.Disp())), true
	}
	m := Mem{Base: i.MemBase, Index: i.MemIndex, Scale: i.MemScale, Disp: int32(i.Disp())}
	return m, true
}

// Rel returns the sign-extended branch displacement.
func (i *Inst) Rel() int64 {
	switch i.RelSize {
	case 1:
		return int64(int8(i.Bytes[i.RelOff]))
	case 4:
		return int64(int32(le32(i.Bytes[i.RelOff:])))
	}
	return 0
}

// Target returns the branch target for direct branches. It is only
// meaningful when RelSize != 0.
func (i *Inst) Target() uint64 {
	return i.Addr + uint64(i.Len) + uint64(i.Rel())
}

// Imm returns the immediate operand sign-extended to 64 bits.
func (i *Inst) Imm() int64 {
	var v uint64
	for n := 0; n < i.ImmSize; n++ {
		v |= uint64(i.Bytes[i.ImmOff+n]) << (8 * uint(n))
	}
	shift := uint(64 - 8*i.ImmSize)
	if i.ImmSize == 0 || i.ImmSize == 8 {
		return int64(v)
	}
	return int64(v<<shift) >> shift
}

// Disp returns the sign-extended ModRM displacement.
func (i *Inst) Disp() int64 {
	switch i.DispSize {
	case 1:
		return int64(int8(i.Bytes[i.DispOff]))
	case 4:
		return int64(int32(le32(i.Bytes[i.DispOff:])))
	}
	return 0
}

// HasMem reports whether the instruction has a memory operand.
func (i *Inst) HasMem() bool { return i.MemBase != NoReg || i.MemIndex != NoReg || i.RIPRel }

// IsJmp reports an unconditional direct or indirect jump.
func (i *Inst) IsJmp() bool { return i.Attrs&AttrJump != 0 }

// IsJcc reports a conditional jump.
func (i *Inst) IsJcc() bool { return i.Attrs&AttrCondJump != 0 }

// IsCall reports a call.
func (i *Inst) IsCall() bool { return i.Attrs&AttrCall != 0 }

// IsRet reports a return.
func (i *Inst) IsRet() bool { return i.Attrs&AttrRet != 0 }

// IsDirectBranch reports a branch with an encoded displacement.
func (i *Inst) IsDirectBranch() bool {
	return i.RelSize != 0 && i.Attrs&(AttrJump|AttrCondJump|AttrCall) != 0
}

// IsEndbr64 reports the CET indirect-branch landing pad
// (F3 0F 1E FA). CET-enabled compilers place it at every indirect
// branch target, which makes it a reliable anchor for classifying
// reachable code without control-flow recovery.
func (i *Inst) IsEndbr64() bool {
	return i.Len == 4 &&
		i.Bytes[0] == 0xF3 && i.Bytes[1] == 0x0F &&
		i.Bytes[2] == 0x1E && i.Bytes[3] == 0xFA
}

// WritesMem reports whether the instruction may write through its
// memory operand.
func (i *Inst) WritesMem() bool {
	return i.Attrs&AttrMemDst != 0 && i.HasMem()
}

// IsHeapWrite implements the paper's application A2 selector: the
// instruction writes memory through a pointer that is neither
// %rsp-based (stack) nor %rip-relative (globals).
func (i *Inst) IsHeapWrite() bool {
	if !i.WritesMem() || i.RIPRel {
		return false
	}
	if i.MemBase == RSP {
		return false
	}
	return true
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
