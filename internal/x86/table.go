package x86

// The decoder's tables, for 64-bit mode. Two opcode attribute maps cover
// the complete one-byte map and the portion of the two-byte (0x0F) map
// emitted by mainstream compilers; unknown two-byte opcodes decode as
// AttrInvalid so that linear disassembly can skip them explicitly
// rather than mis-sizing silently. Three small tables (576 bytes) turn
// the rest of the length walk (decode.go) into lookups:
//
//   - prefixTab classifies a byte as a prefix and carries the two facts
//     a prefix contributes to the length: 0x66 anywhere in the run, and
//     REX.W on the final prefix.
//   - modrmTab gives, per ModRM byte, the bytes that follow it before
//     any immediate: the SIB byte and the displacement. It is the one
//     statement of that rule.
//   - immTab gives the immediate size for each combination of the four
//     Imm* attribute bits under each of those prefix facts. It is the
//     one statement of the ImmZ/ImmV size rule.
//
// A branch displacement and a moffs operand have fixed sizes and are
// added from their attribute bits directly.

// prefixTab[b] is 0 when b is not a prefix, else its pfx* bits. The low
// two bits index immTab.
var prefixTab [256]uint8

const (
	pfxOpSize uint8 = 1 << iota // 0x66: ImmZ and ImmV shrink to 2 bytes
	pfxRexW                     // REX with W set: ImmV grows to 8 bytes
	pfxRex                      // any REX byte
	pfxOther                    // 0x67, segment overrides, lock/rep

	pfxImmMode = pfxOpSize | pfxRexW
)

// modrmTab[m] describes what follows ModRM byte m: the low bits count
// the SIB and displacement bytes, the flags say which of them are there.
var modrmTab [256]uint8

const (
	modTail uint8 = 0x07 // SIB + displacement bytes after the ModRM byte
	modSIB  uint8 = 0x08 // a SIB byte follows
	// modSIB0: SIB present and mod == 0, where a SIB base of 101b means
	// "disp32, no base" and adds 4 bytes modTail does not count.
	modSIB0 uint8 = 0x10
)

// immTab[mode<<4|bits] is the immediate size under prefix facts mode
// (pfxImmMode) for Imm* attribute bits bits (immBits >> immShift).
var immTab [64]uint8

const (
	immBits  = AttrImm8 | AttrImm16 | AttrImmZ | AttrImmV
	immShift = 1
	// The fixed-size tail fields, as shifts of their attribute bits.
	rel8Shift, rel32Shift, moffsShift = 5, 6, 7
)

// The walk reads these attribute bits by position.
const (
	_ = -uint(immBits>>immShift ^ 15)
	_ = -uint(AttrRel8>>rel8Shift ^ 1)
	_ = -uint(AttrRel32>>rel32Shift ^ 1)
	_ = -uint(AttrMoffs>>moffsShift ^ 1)
)

func initShapeTables() {
	for _, b := range []int{0x67, 0x2E, 0x36, 0x3E, 0x26, 0x64, 0x65, 0xF0, 0xF2, 0xF3} {
		prefixTab[b] = pfxOther
	}
	prefixTab[0x66] = pfxOpSize
	for b := 0x40; b <= 0x4F; b++ {
		prefixTab[b] = pfxRex
		if b&0x08 != 0 {
			prefixTab[b] |= pfxRexW
		}
	}

	for m := range modrmTab {
		mod, rm := m>>6, m&7
		if mod == 3 {
			continue // register operand: nothing follows
		}
		var t uint8
		switch mod {
		case 1:
			t = 1 // disp8
		case 2:
			t = 4 // disp32
		}
		switch {
		case rm == 4:
			t += 1 | modSIB
			if mod == 0 {
				t |= modSIB0
			}
		case rm == 5 && mod == 0:
			t = 4 // RIP-relative disp32
		}
		modrmTab[m] = t
	}

	for i := range immTab {
		mode, bits := uint8(i>>4), Attr(i&15)<<immShift
		var n uint8
		if bits&AttrImm8 != 0 {
			n += 1
		}
		if bits&AttrImm16 != 0 {
			n += 2
		}
		if bits&AttrImmZ != 0 {
			if mode&pfxOpSize != 0 {
				n += 2
			} else {
				n += 4
			}
		}
		if bits&AttrImmV != 0 {
			switch {
			case mode&pfxRexW != 0:
				n += 8
			case mode&pfxOpSize != 0:
				n += 2
			default:
				n += 4
			}
		}
		immTab[i] = n
	}
}

// oneByte is the one-byte opcode attribute map.
var oneByte = [256]Attr{}

// twoByte is the 0x0F-escaped opcode attribute map.
var twoByte = [256]Attr{}

func setRange(tab *[256]Attr, lo, hi int, a Attr) {
	for i := lo; i <= hi; i++ {
		tab[i] = a
	}
}

func init() {
	initOneByte()
	initTwoByte()
	initShapeTables()
}

func initOneByte() {
	t := &oneByte

	// 0x00-0x3F: the classic ALU block. Each group of 8:
	//   +0 op r/m8,r8   +1 op r/m,r    (memory destination)
	//   +2 op r8,r/m8   +3 op r,r/m    (register destination)
	//   +4 op al,imm8   +5 op eax,immz
	//   +6/+7: invalid in 64-bit mode (or prefixes at 0x26/0x2E/…).
	for _, base := range []int{0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38} {
		memDst := Attr(AttrModRM | AttrMemDst)
		if base == 0x38 { // cmp writes nothing
			memDst = AttrModRM
		}
		t[base+0] = memDst
		t[base+1] = memDst
		t[base+2] = AttrModRM
		t[base+3] = AttrModRM
		t[base+4] = AttrImm8
		t[base+5] = AttrImmZ
		t[base+6] = AttrInvalid
		t[base+7] = AttrInvalid
	}
	// Prefix bytes inside the block are classified by prefixTab and
	// never reach the opcode table, but mark them invalid-as-opcode.
	for _, p := range []int{0x26, 0x2E, 0x36, 0x3E} {
		t[p] = AttrInvalid
	}

	// 0x40-0x4F are REX prefixes (consumed before the opcode).
	setRange(t, 0x40, 0x4F, AttrInvalid)

	// push/pop r64.
	setRange(t, 0x50, 0x5F, 0)

	setRange(t, 0x60, 0x62, AttrInvalid)
	t[0x63] = AttrModRM // movsxd
	t[0x64] = AttrInvalid
	t[0x65] = AttrInvalid
	t[0x66] = AttrInvalid // prefix
	t[0x67] = AttrInvalid // prefix
	t[0x68] = AttrImmZ    // push immz
	t[0x69] = AttrModRM | AttrImmZ
	t[0x6A] = AttrImm8 // push imm8
	t[0x6B] = AttrModRM | AttrImm8
	setRange(t, 0x6C, 0x6F, 0) // ins/outs

	// jcc rel8.
	setRange(t, 0x70, 0x7F, AttrRel8|AttrCondJump)

	t[0x80] = AttrModRM | AttrImm8 | AttrMemDst // grp1 r/m8,imm8
	t[0x81] = AttrModRM | AttrImmZ | AttrMemDst
	t[0x82] = AttrInvalid
	t[0x83] = AttrModRM | AttrImm8 | AttrMemDst
	t[0x84] = AttrModRM // test
	t[0x85] = AttrModRM
	t[0x86] = AttrModRM | AttrMemDst // xchg
	t[0x87] = AttrModRM | AttrMemDst
	t[0x88] = AttrModRM | AttrMemDst // mov r/m8,r8
	t[0x89] = AttrModRM | AttrMemDst // mov r/m,r
	t[0x8A] = AttrModRM
	t[0x8B] = AttrModRM
	t[0x8C] = AttrModRM | AttrMemDst // mov r/m,sreg
	t[0x8D] = AttrModRM              // lea
	t[0x8E] = AttrModRM              // mov sreg,r/m
	t[0x8F] = AttrModRM | AttrMemDst // pop r/m

	setRange(t, 0x90, 0x97, 0) // nop / xchg rax,r
	setRange(t, 0x98, 0x9F, 0) // cwde, cdq, pushf, popf, sahf, lahf
	t[0x9A] = AttrInvalid      // far call, invalid in 64-bit

	setRange(t, 0xA0, 0xA3, AttrMoffs)
	t[0xA2] |= AttrMemDst // mov moffs8,al
	t[0xA3] |= AttrMemDst // mov moffs,ax/eax/rax
	setRange(t, 0xA4, 0xA7, 0)
	t[0xA8] = AttrImm8
	t[0xA9] = AttrImmZ
	setRange(t, 0xAA, 0xAF, 0) // stos/lods/scas

	setRange(t, 0xB0, 0xB7, AttrImm8) // mov r8,imm8
	setRange(t, 0xB8, 0xBF, AttrImmV) // mov r,immv (movabs with REX.W)

	t[0xC0] = AttrModRM | AttrImm8 | AttrMemDst // grp2 r/m8,imm8
	t[0xC1] = AttrModRM | AttrImm8 | AttrMemDst
	t[0xC2] = AttrImm16 | AttrRet | AttrStop
	t[0xC3] = AttrRet | AttrStop
	t[0xC4] = AttrInvalid                       // VEX
	t[0xC5] = AttrInvalid                       // VEX
	t[0xC6] = AttrModRM | AttrImm8 | AttrMemDst // mov r/m8,imm8
	t[0xC7] = AttrModRM | AttrImmZ | AttrMemDst // mov r/m,immz
	t[0xC8] = AttrImm16 | AttrImm8              // enter imm16,imm8
	t[0xC9] = 0                                 // leave
	t[0xCA] = AttrImm16 | AttrRet | AttrStop
	t[0xCB] = AttrRet | AttrStop
	t[0xCC] = AttrInt3
	t[0xCD] = AttrImm8 // int imm8
	t[0xCE] = AttrInvalid
	t[0xCF] = AttrRet | AttrStop // iret

	t[0xD0] = AttrModRM | AttrMemDst // grp2 r/m8,1
	t[0xD1] = AttrModRM | AttrMemDst
	t[0xD2] = AttrModRM | AttrMemDst // grp2 r/m8,cl
	t[0xD3] = AttrModRM | AttrMemDst
	t[0xD4] = AttrInvalid
	t[0xD5] = AttrInvalid
	t[0xD6] = AttrInvalid
	t[0xD7] = 0                        // xlat
	setRange(t, 0xD8, 0xDF, AttrModRM) // x87

	setRange(t, 0xE0, 0xE3, AttrRel8|AttrCondJump) // loopcc / jrcxz
	t[0xE4] = AttrImm8                             // in
	t[0xE5] = AttrImm8
	t[0xE6] = AttrImm8 // out
	t[0xE7] = AttrImm8
	t[0xE8] = AttrRel32 | AttrCall
	t[0xE9] = AttrRel32 | AttrJump | AttrStop
	t[0xEA] = AttrInvalid // far jmp
	t[0xEB] = AttrRel8 | AttrJump | AttrStop
	setRange(t, 0xEC, 0xEF, 0) // in/out dx

	t[0xF0] = AttrInvalid                         // lock prefix
	t[0xF1] = 0                                   // int1
	t[0xF2] = AttrInvalid                         // prefix
	t[0xF3] = AttrInvalid                         // prefix
	t[0xF4] = AttrStop                            // hlt
	t[0xF5] = 0                                   // cmc
	t[0xF6] = AttrModRM | AttrGroup3 | AttrMemDst // grp3: not/neg write
	t[0xF7] = AttrModRM | AttrGroup3 | AttrMemDst
	setRange(t, 0xF8, 0xFD, 0)       // clc..std
	t[0xFE] = AttrModRM | AttrMemDst // grp4 inc/dec r/m8
	t[0xFF] = AttrModRM              // grp5 (refined by modrm.reg)
}

func initTwoByte() {
	t := &twoByte
	setRange(t, 0x00, 0xFF, AttrInvalid)

	t[0x05] = AttrStop // syscall
	t[0x0B] = AttrStop // ud2
	t[0x0D] = AttrModRM
	setRange(t, 0x10, 0x17, AttrModRM) // SSE mov low/high
	t[0x11] |= AttrMemDst              // movups/movsd store form
	t[0x13] |= AttrMemDst
	t[0x17] |= AttrMemDst
	setRange(t, 0x18, 0x1F, AttrModRM) // prefetch / hint nop
	setRange(t, 0x28, 0x2F, AttrModRM) // movaps, cvt, ucomis
	t[0x29] |= AttrMemDst              // movaps store
	t[0x2B] |= AttrMemDst              // movntps
	t[0x31] = 0                        // rdtsc
	t[0x38] = AttrInvalid              // three-byte escape (unsupported)
	t[0x3A] = AttrInvalid
	setRange(t, 0x40, 0x4F, AttrModRM)              // cmovcc
	setRange(t, 0x50, 0x5F, AttrModRM)              // SSE arith
	setRange(t, 0x60, 0x6F, AttrModRM)              // punpck, movd/movdqa load
	t[0x70] = AttrModRM | AttrImm8                  // pshufd
	setRange(t, 0x71, 0x73, AttrModRM|AttrImm8)     // pshift groups
	setRange(t, 0x74, 0x76, AttrModRM)              // pcmpeq
	t[0x77] = 0                                     // emms
	setRange(t, 0x7E, 0x7F, AttrModRM|AttrMemDst)   // movd/movdqa store form
	setRange(t, 0x80, 0x8F, AttrRel32|AttrCondJump) // jcc rel32
	setRange(t, 0x90, 0x9F, AttrModRM|AttrMemDst)   // setcc
	t[0xA0] = 0                                     // push fs
	t[0xA1] = 0
	t[0xA2] = 0 // cpuid
	t[0xA3] = AttrModRM
	t[0xA4] = AttrModRM | AttrImm8 | AttrMemDst // shld
	t[0xA5] = AttrModRM | AttrMemDst
	t[0xA8] = 0
	t[0xA9] = 0
	t[0xAB] = AttrModRM | AttrMemDst            // bts
	t[0xAC] = AttrModRM | AttrImm8 | AttrMemDst // shrd
	t[0xAD] = AttrModRM | AttrMemDst
	t[0xAE] = AttrModRM              // fences / fxsave group
	t[0xAF] = AttrModRM              // imul
	t[0xB0] = AttrModRM | AttrMemDst // cmpxchg
	t[0xB1] = AttrModRM | AttrMemDst
	t[0xB3] = AttrModRM | AttrMemDst // btr
	t[0xB6] = AttrModRM              // movzx
	t[0xB7] = AttrModRM
	t[0xB8] = AttrModRM                         // popcnt (F3)
	t[0xBA] = AttrModRM | AttrImm8 | AttrMemDst // bt group
	t[0xBB] = AttrModRM | AttrMemDst            // btc
	t[0xBC] = AttrModRM                         // bsf
	t[0xBD] = AttrModRM                         // bsr
	t[0xBE] = AttrModRM                         // movsx
	t[0xBF] = AttrModRM
	t[0xC0] = AttrModRM | AttrMemDst // xadd
	t[0xC1] = AttrModRM | AttrMemDst
	t[0xC2] = AttrModRM | AttrImm8   // cmpps
	t[0xC3] = AttrModRM | AttrMemDst // movnti
	t[0xC4] = AttrModRM | AttrImm8   // pinsrw
	t[0xC5] = AttrModRM | AttrImm8   // pextrw
	t[0xC6] = AttrModRM | AttrImm8   // shufps
	t[0xC7] = AttrModRM | AttrMemDst // cmpxchg8b/16b
	setRange(t, 0xC8, 0xCF, 0)       // bswap
	setRange(t, 0xD0, 0xEF, AttrModRM)
	t[0xD6] |= AttrMemDst // movq store
	t[0xE7] |= AttrMemDst // movntq
	setRange(t, 0xF0, 0xFE, AttrModRM)
	t[0xFF] = AttrInvalid
}
