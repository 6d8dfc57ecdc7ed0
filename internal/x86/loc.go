package x86

import "unsafe"

// Loc is what the recovered instruction universe is made of: where an
// instruction is, how long it is, what class it belongs to, and a view
// of its bytes. It is the paper's "instruction locations and sizes" and
// a fifth the size of an Inst, which matters at one record per
// instruction of a browser-class binary. Everything that only needs to
// know where instructions lie (the patcher's neighbour scans, address
// lookups, the universe digest) and every class test (jump, call,
// length) reads a Loc directly; whoever needs an operand-shape field
// decodes that one instruction with DecodeInto.
type Loc struct {
	// Addr is the virtual address of the first byte.
	Addr uint64
	// text points at the first byte in the text the instruction was
	// recovered from; Bytes is the view of it.
	text *byte
	// Attrs are the decoded attribute flags, equal to Inst.Attrs.
	Attrs Attr
	// Len is the total encoded length in bytes (1 to 15).
	Len uint8
}

// Loc condenses a decoded instruction to its universe record, which
// aliases the same code bytes.
func (i *Inst) Loc() Loc {
	return Loc{Addr: i.Addr, text: &i.Bytes[0], Attrs: i.Attrs, Len: uint8(i.Len)}
}

// LocAt is the universe record of the n-byte instruction at code[0],
// loaded at addr, for a caller that knows the length already: the
// attributes come from AttrsOf and nothing is decoded twice.
func LocAt(code []byte, addr uint64, n uint8) Loc {
	return Loc{Addr: addr, text: &code[0], Attrs: AttrsOf(code), Len: n}
}

// Bytes returns the instruction's machine code, aliasing the text it
// was recovered from.
func (l *Loc) Bytes() []byte { return unsafe.Slice(l.text, int(l.Len)) }

// DecodeInto decodes the full instruction in place. A Loc is only ever
// made from a successful decode of these very bytes and a decode reads
// nothing past the instruction's end, so it cannot fail.
func (l *Loc) DecodeInto(inst *Inst) { _ = DecodeInto(inst, l.Bytes(), l.Addr) }

// RelSize is the size of the encoded branch displacement (0, 1 or 4),
// equal to Inst.RelSize.
func (l *Loc) RelSize() int {
	switch {
	case l.Attrs&AttrRel8 != 0:
		return 1
	case l.Attrs&AttrRel32 != 0:
		return 4
	}
	return 0
}

// IsJmp reports an unconditional direct or indirect jump.
func (l *Loc) IsJmp() bool { return l.Attrs&AttrJump != 0 }

// IsJcc reports a conditional jump.
func (l *Loc) IsJcc() bool { return l.Attrs&AttrCondJump != 0 }

// IsCall reports a call.
func (l *Loc) IsCall() bool { return l.Attrs&AttrCall != 0 }

// IsRet reports a return.
func (l *Loc) IsRet() bool { return l.Attrs&AttrRet != 0 }

// MayWriteMem reports an opcode that writes its ModRM operand when that
// operand is memory: necessary for Inst.WritesMem and Inst.IsHeapWrite,
// which also need the decoded operand.
func (l *Loc) MayWriteMem() bool { return l.Attrs&AttrMemDst != 0 }
