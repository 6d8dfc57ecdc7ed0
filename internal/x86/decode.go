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

// maxWalk bounds the offset Decode's walk can reach before the length
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

// Decode decodes the instruction starting at code[0], assumed to be
// loaded at virtual address addr. The returned Inst aliases code.
func Decode(code []byte, addr uint64) (Inst, error) {
	var inst Inst
	err := DecodeInto(&inst, code, addr)
	return inst, err
}

// DecodeInto is Decode writing its result in place: a caller filling a
// slice, or sweeping offsets for lengths alone, saves the copy of the
// returned Inst. On error *inst is partially filled.
func DecodeInto(inst *Inst, code []byte, addr uint64) error {
	*inst = Inst{
		Addr:     addr,
		MemBase:  NoReg,
		MemIndex: NoReg,
	}
	pos := 0

	// Legacy and REX prefixes. REX is only effective when it is the
	// final prefix; compilers always emit it last, and for length
	// decoding earlier REX bytes are harmless.
	opSize := false
	for {
		if pos >= len(code) {
			return ErrTruncated
		}
		if pos >= maxInstLen {
			return &invalidPrefix
		}
		b := code[pos]
		k := prefixKind(b)
		if k == prefNone {
			break
		}
		if k == prefRex {
			inst.Rex = b
		} else {
			inst.Rex = 0 // REX must immediately precede the opcode
		}
		if k == prefOpSize {
			opSize = true
		}
		pos++
	}
	inst.NPrefix = pos

	// Opcode.
	op := code[pos]
	pos++
	var attrs Attr
	if op == 0x0F {
		if pos >= len(code) {
			return ErrTruncated
		}
		inst.TwoByte = true
		op = code[pos]
		pos++
		attrs = twoByte[op]
	} else {
		attrs = oneByte[op]
	}
	inst.Opcode = op
	if attrs&AttrInvalid != 0 {
		if inst.TwoByte {
			return &invalidOpcode[1][op]
		}
		return &invalidOpcode[0][op]
	}

	// ModRM, SIB and displacement.
	if attrs&AttrModRM != 0 {
		if pos >= len(code) {
			return ErrTruncated
		}
		modrm := code[pos]
		pos++
		inst.ModRM = modrm
		mod := modrm >> 6
		rm := modrm & 7

		dispSize := 0
		if mod == 3 {
			// Register operand: no memory access.
		} else {
			switch mod {
			case 1:
				dispSize = 1
			case 2:
				dispSize = 4
			}
			if rm == 4 {
				// SIB byte.
				if pos >= len(code) {
					return ErrTruncated
				}
				sib := code[pos]
				pos++
				base := sib & 7
				index := (sib >> 3) & 7
				scaledIndex := Reg(index) | Reg(rexBit(inst.Rex, 1))<<3
				if scaledIndex != RSP { // index=100b means "no index"
					inst.MemIndex = scaledIndex
					inst.MemScale = 1 << (sib >> 6)
				}
				if base == 5 && mod == 0 {
					dispSize = 4 // disp32, no base
				} else {
					inst.MemBase = Reg(base) | Reg(rexBit(inst.Rex, 0))<<3
				}
			} else if rm == 5 && mod == 0 {
				// RIP-relative in 64-bit mode.
				dispSize = 4
				inst.RIPRel = true
				inst.MemBase = RIP
			} else {
				inst.MemBase = Reg(rm) | Reg(rexBit(inst.Rex, 0))<<3
			}
		}
		if dispSize > 0 {
			if pos+dispSize > len(code) {
				return ErrTruncated
			}
			inst.DispOff = pos
			inst.DispSize = dispSize
			pos += dispSize
		}

		attrs = refineGroups(op, inst.TwoByte, modrm, attrs)
		// Register-form instructions never write memory.
		if mod == 3 {
			attrs &^= AttrMemDst
		}
	}

	// Immediates.
	immSize := 0
	if attrs&AttrImm8 != 0 {
		immSize += 1
	}
	if attrs&AttrImm16 != 0 {
		immSize += 2
	}
	if attrs&AttrImmZ != 0 {
		if opSize {
			immSize += 2
		} else {
			immSize += 4
		}
	}
	if attrs&AttrImmV != 0 {
		switch {
		case inst.Rex&0x08 != 0:
			immSize += 8
		case opSize:
			immSize += 2
		default:
			immSize += 4
		}
	}
	if attrs&AttrMoffs != 0 {
		immSize += 8
	}
	if immSize > 0 {
		if pos+immSize > len(code) {
			return ErrTruncated
		}
		inst.ImmOff = pos
		inst.ImmSize = immSize
		pos += immSize
	}

	// Branch displacement (always the final field).
	switch {
	case attrs&AttrRel8 != 0:
		if pos >= len(code) {
			return ErrTruncated
		}
		inst.RelOff = pos
		inst.RelSize = 1
		pos++
	case attrs&AttrRel32 != 0:
		if pos+4 > len(code) {
			return ErrTruncated
		}
		inst.RelOff = pos
		inst.RelSize = 4
		pos += 4
	}

	if pos > maxInstLen {
		return &invalidLength[pos]
	}
	inst.Len = pos
	inst.Bytes = code[:pos]
	inst.Attrs = attrs
	return nil
}

// rexBit extracts REX bit n (0=B, 1=X, 2=R, 3=W) as 0 or 1.
func rexBit(rex byte, n uint) byte {
	return (rex >> n) & 1
}

// refineGroups adjusts attributes for opcodes whose semantics depend on
// the ModRM reg field (the x86 "group" encodings).
func refineGroups(op byte, twoByteOp bool, modrm byte, attrs Attr) Attr {
	reg := (modrm >> 3) & 7
	if twoByteOp {
		return attrs
	}
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
