package x86

import (
	"errors"
	"fmt"
)

// Decoding errors.
var (
	// ErrTruncated reports that the byte stream ended inside an
	// instruction. Decode returns it bare.
	ErrTruncated = errors.New("x86: truncated instruction")
	// ErrInvalid reports an opcode that is invalid in 64-bit mode or
	// outside the supported subset. Decode returns it wrapped with the
	// detail; match it with errors.Is.
	ErrInvalid = errors.New("x86: invalid opcode")
)

const maxInstLen = 15

// maxWalk bounds the offset Shape's walk can reach before the length
// check rejects it: 14 prefix bytes, a two-byte opcode, ModRM, SIB, a
// disp32, every immediate flag at once (1+2+4+8+8) and a rel32.
const maxWalk = 14 + 2 + 1 + 1 + 4 + 23 + 4

// invalidError is ErrInvalid plus the detail of what was rejected. A
// superset sweep fails to decode about a third of all offsets, so the
// values are static and the message is formatted only when printed:
// a failed Decode allocates nothing.
type invalidError struct {
	why     uint8 // badOpcode, badPrefixRun or badLength
	op      byte  // badOpcode: the opcode byte…
	twoByte bool  // …and whether it followed the 0x0F escape
	n       int   // badLength: the decoded length
}

const (
	badOpcode = iota
	badPrefixRun
	badLength
)

var (
	invalidOpcode [2][256]invalidError
	invalidLength [maxWalk + 1]invalidError
	invalidPrefix = invalidError{why: badPrefixRun}
)

func init() {
	for op := range invalidOpcode[0] {
		invalidOpcode[0][op] = invalidError{why: badOpcode, op: byte(op)}
		invalidOpcode[1][op] = invalidError{why: badOpcode, op: byte(op), twoByte: true}
	}
	for n := range invalidLength {
		invalidLength[n] = invalidError{why: badLength, n: n}
	}
}

func (e *invalidError) Error() string {
	switch e.why {
	case badPrefixRun:
		return fmt.Sprintf("%v: prefix run too long", ErrInvalid)
	case badLength:
		return fmt.Sprintf("%v: length %d exceeds 15", ErrInvalid, e.n)
	}
	return fmt.Sprintf("%v: %#02x (two-byte=%v)", ErrInvalid, e.op, e.twoByte)
}

func (e *invalidError) Unwrap() error { return ErrInvalid }

// Shape is the length decoder, the whole of what the paper's frontend
// contract asks of a disassembler: the length and the attribute flags
// of the instruction starting at code[0], equal to the Len and Attrs
// DecodeInto reports and failing with the same error values. Every
// recovery mode sweeps with it. The walk is table lookups (table.go):
// the prefix run, one opcode map entry, the ModRM byte's tail, the
// immediate size; a failure allocates nothing.
func Shape(code []byte) (n int, attrs Attr, err error) {
	// Legacy and REX prefixes. REX is only effective when it is the
	// final prefix; compilers always emit it last, and for length
	// decoding earlier REX bytes are harmless.
	pos := 0
	var mode uint8
	for {
		if pos >= len(code) {
			return 0, 0, ErrTruncated
		}
		if pos >= maxInstLen {
			return 0, 0, &invalidPrefix
		}
		k := prefixTab[code[pos]]
		if k == 0 {
			break
		}
		mode = mode&pfxOpSize | k&pfxImmMode
		pos++
	}

	op := code[pos]
	pos++
	two := op == 0x0F
	if two {
		if pos >= len(code) {
			return 0, 0, ErrTruncated
		}
		op = code[pos]
		pos++
		attrs = twoByte[op]
	} else {
		attrs = oneByte[op]
	}
	if attrs&AttrInvalid != 0 {
		if two {
			return 0, 0, &invalidOpcode[1][op]
		}
		return 0, 0, &invalidOpcode[0][op]
	}

	if attrs&AttrModRM != 0 {
		if pos >= len(code) {
			return 0, 0, ErrTruncated
		}
		modrm := code[pos]
		pos++
		t := modrmTab[modrm]
		if t&modSIB0 != 0 {
			if pos >= len(code) {
				return 0, 0, ErrTruncated
			}
			if code[pos]&7 == 5 {
				pos += 4 // disp32, no base
			}
		}
		pos += int(t & modTail)
		attrs = modrmAttrs(op, two, modrm, attrs)
	}

	// Immediates, then the branch displacement (always the final field).
	pos += int(immTab[mode<<4|uint8(attrs&immBits>>immShift)])
	pos += int(attrs>>rel8Shift&1 | attrs>>rel32Shift&1<<2 | attrs>>moffsShift&1<<3)

	if pos > len(code) {
		return 0, 0, ErrTruncated
	}
	if pos > maxInstLen {
		return 0, 0, &invalidLength[pos]
	}
	return pos, attrs, nil
}

// AttrsOf returns the attribute flags of the instruction code holds,
// for a caller that already knows it decodes and how long it is (the
// recovery table keeps a length per offset): the prefix run is skipped,
// the opcode looked up and refined by its ModRM byte, nothing past that
// is read. Equal to what Shape and DecodeInto report for the same bytes.
func AttrsOf(code []byte) Attr {
	pos := prefixRun(code)
	op, attrs := code[pos], Attr(0)
	two := op == 0x0F
	if two {
		pos++
		op = code[pos]
		attrs = twoByte[op]
	} else {
		attrs = oneByte[op]
	}
	if attrs&AttrModRM != 0 {
		attrs = modrmAttrs(op, two, code[pos+1], attrs)
	}
	return attrs
}

// Decode decodes the instruction starting at code[0], assumed to be
// loaded at virtual address addr. The returned Inst aliases code.
func Decode(code []byte, addr uint64) (Inst, error) {
	var inst Inst
	err := DecodeInto(&inst, code, addr)
	return inst, err
}

// DecodeInto is Decode writing its result in place. It is Shape plus
// the operand fields: where the prefixes end, which registers the
// memory operand names, and where the displacement, the immediate and
// the branch displacement lie inside the length Shape found. On error
// *inst holds addr and nothing else.
func DecodeInto(inst *Inst, code []byte, addr uint64) error {
	*inst = Inst{
		Addr:     addr,
		MemBase:  NoReg,
		MemIndex: NoReg,
	}
	n, attrs, err := Shape(code)
	if err != nil {
		return err
	}
	inst.Len = n
	inst.Bytes = code[:n]
	inst.Attrs = attrs

	// Shape walked these n bytes, so nothing below can run off them.
	pos := prefixRun(code)
	inst.NPrefix = pos
	if pos > 0 && prefixTab[code[pos-1]]&pfxRex != 0 {
		inst.Rex = code[pos-1] // REX must immediately precede the opcode
	}
	if code[pos] == 0x0F {
		inst.TwoByte = true
		pos++
	}
	inst.Opcode = code[pos]
	pos++

	if attrs&AttrModRM != 0 {
		modrm := code[pos]
		pos++
		inst.ModRM = modrm
		t := modrmTab[modrm]
		disp := int(t & modTail)
		switch {
		case t&modSIB != 0:
			sib := code[pos]
			pos++
			disp--
			base := sib & 7
			scaledIndex := Reg(sib>>3&7) | Reg(rexBit(inst.Rex, 1))<<3
			if scaledIndex != RSP { // index=100b means "no index"
				inst.MemIndex = scaledIndex
				inst.MemScale = 1 << (sib >> 6)
			}
			if t&modSIB0 != 0 && base == 5 {
				disp = 4 // disp32, no base
			} else {
				inst.MemBase = Reg(base) | Reg(rexBit(inst.Rex, 0))<<3
			}
		case modrm&0xC7 == 0x05:
			// RIP-relative in 64-bit mode.
			inst.RIPRel = true
			inst.MemBase = RIP
		case modrm < 0xC0:
			inst.MemBase = Reg(modrm&7) | Reg(rexBit(inst.Rex, 0))<<3
		}
		if disp > 0 {
			inst.DispOff = pos
			inst.DispSize = disp
			pos += disp
		}
	}

	// What is left is the immediate and then the branch displacement.
	switch {
	case attrs&AttrRel8 != 0:
		inst.RelSize = 1
	case attrs&AttrRel32 != 0:
		inst.RelSize = 4
	}
	if inst.RelSize > 0 {
		inst.RelOff = n - inst.RelSize
	}
	if imm := n - inst.RelSize - pos; imm > 0 {
		inst.ImmOff = pos
		inst.ImmSize = imm
	}
	return nil
}

// prefixRun is the length of the prefix run that opens an instruction
// Shape has accepted (so an opcode ends it).
func prefixRun(code []byte) int {
	n := 0
	for prefixTab[code[n]] != 0 {
		n++
	}
	return n
}

// rexBit extracts REX bit n (0=B, 1=X, 2=R, 3=W) as 0 or 1.
func rexBit(rex byte, n uint) byte {
	return (rex >> n) & 1
}

// modrmAttrs finishes the attributes of an opcode that takes a ModRM
// byte: the group encodings depend on its reg field, and a register
// operand (mod == 3) is never a memory destination.
func modrmAttrs(op byte, twoByteOp bool, modrm byte, attrs Attr) Attr {
	if !twoByteOp && op >= 0xF6 {
		attrs = refineGroups(op, modrm, attrs)
	}
	if modrm >= 0xC0 {
		attrs &^= AttrMemDst
	}
	return attrs
}

// refineGroups adjusts attributes for the one-byte opcodes whose
// semantics depend on the ModRM reg field (the x86 "group" encodings).
// Four opcodes reach it: kept out of line, it leaves modrmAttrs small
// enough to inline into the walk.
//
//go:noinline
func refineGroups(op byte, modrm byte, attrs Attr) Attr {
	reg := (modrm >> 3) & 7
	switch op {
	case 0xF6, 0xF7: // group 3
		attrs &^= AttrGroup3
		if reg <= 1 { // test r/m,imm
			if op == 0xF6 {
				attrs |= AttrImm8
			} else {
				attrs |= AttrImmZ
			}
			attrs &^= AttrMemDst
		} else if reg >= 4 { // mul/imul/div/idiv read only
			attrs &^= AttrMemDst
		}
		// reg 2 (not) and 3 (neg) keep AttrMemDst.
	case 0xFF: // group 5
		switch reg {
		case 0, 1: // inc/dec r/m
			attrs |= AttrMemDst
		case 2: // call r/m (indirect)
			attrs |= AttrCall
		case 3: // far call
			attrs |= AttrCall
		case 4, 5: // jmp r/m (indirect)
			attrs |= AttrJump | AttrStop
		case 6: // push r/m
		}
	}
	return attrs
}
