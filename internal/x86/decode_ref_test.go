package x86

// prefix kinds recognised before the opcode.
const (
	refPrefNone = iota
	refPrefLegacy
	refPrefRex
	refPrefOpSize  // 0x66
	refPrefAdSize  // 0x67
	refPrefSeg     // segment overrides
	refPrefLockRep // 0xF0, 0xF2, 0xF3
)

// refPrefixKind classifies a byte as an instruction prefix (64-bit mode).
func refPrefixKind(b byte) int {
	switch b {
	case 0x66:
		return refPrefOpSize
	case 0x67:
		return refPrefAdSize
	case 0x2E, 0x36, 0x3E, 0x26, 0x64, 0x65:
		return refPrefSeg
	case 0xF0, 0xF2, 0xF3:
		return refPrefLockRep
	}
	if b >= 0x40 && b <= 0x4F {
		return refPrefRex
	}
	return refPrefNone
}

// refDecodeInto is the branchy DecodeInto the table-driven kernel
// replaced, kept verbatim as the oracle: Shape, AttrsOf and the rebuilt
// DecodeInto are held to it (kernel_test.go). It shares the opcode maps
// and the static error values with the product code and nothing else.
func refDecodeInto(inst *Inst, code []byte, addr uint64) error {
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
		k := refPrefixKind(b)
		if k == refPrefNone {
			break
		}
		if k == refPrefRex {
			inst.Rex = b
		} else {
			inst.Rex = 0 // REX must immediately precede the opcode
		}
		if k == refPrefOpSize {
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
				scaledIndex := Reg(index) | Reg(refRexBit(inst.Rex, 1))<<3
				if scaledIndex != RSP { // index=100b means "no index"
					inst.MemIndex = scaledIndex
					inst.MemScale = 1 << (sib >> 6)
				}
				if base == 5 && mod == 0 {
					dispSize = 4 // disp32, no base
				} else {
					inst.MemBase = Reg(base) | Reg(refRexBit(inst.Rex, 0))<<3
				}
			} else if rm == 5 && mod == 0 {
				// RIP-relative in 64-bit mode.
				dispSize = 4
				inst.RIPRel = true
				inst.MemBase = RIP
			} else {
				inst.MemBase = Reg(rm) | Reg(refRexBit(inst.Rex, 0))<<3
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

		attrs = refRefineGroups(op, inst.TwoByte, modrm, attrs)
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

// refRexBit extracts REX bit n (0=B, 1=X, 2=R, 3=W) as 0 or 1.
func refRexBit(rex byte, n uint) byte {
	return (rex >> n) & 1
}

// refRefineGroups adjusts attributes for opcodes whose semantics depend on
// the ModRM reg field (the x86 "group" encodings).
func refRefineGroups(op byte, twoByteOp bool, modrm byte, attrs Attr) Attr {
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
