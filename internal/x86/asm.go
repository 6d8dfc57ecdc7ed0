package x86

import "fmt"

// Mem describes a memory operand: [Base + Index*Scale + Disp] or
// RIP-relative [rip + Disp].
type Mem struct {
	Base   Reg
	Index  Reg
	Scale  uint8 // 1, 2, 4 or 8
	Disp   int32
	RIPRel bool
}

// M returns a base-register memory operand with displacement.
func M(base Reg, disp int32) Mem { return Mem{Base: base, Index: NoReg, Disp: disp} }

// MIdx returns a base+index*scale+disp memory operand.
func MIdx(base, index Reg, scale uint8, disp int32) Mem {
	return Mem{Base: base, Index: index, Scale: scale, Disp: disp}
}

// MRIP returns a RIP-relative memory operand.
func MRIP(disp int32) Mem { return Mem{Base: NoReg, Index: NoReg, Disp: disp, RIPRel: true} }

// MAbs returns an absolute 32-bit-addressed memory operand.
func MAbs(addr int32) Mem { return Mem{Base: NoReg, Index: NoReg, Disp: addr} }

// Cond is an x86 condition code (the tttn field).
type Cond uint8

// Condition codes.
const (
	CondO  Cond = 0x0
	CondNO Cond = 0x1
	CondB  Cond = 0x2
	CondAE Cond = 0x3
	CondE  Cond = 0x4
	CondNE Cond = 0x5
	CondBE Cond = 0x6
	CondA  Cond = 0x7
	CondS  Cond = 0x8
	CondNS Cond = 0x9
	CondP  Cond = 0xA
	CondNP Cond = 0xB
	CondL  Cond = 0xC
	CondGE Cond = 0xD
	CondLE Cond = 0xE
	CondG  Cond = 0xF
)

var condNames = [...]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

func (c Cond) String() string { return condNames[c&0xF] }

// Label marks a position in assembled code for branch targets.
type Label struct {
	addr   uint64
	bound  bool
	fixups []fixup
}

type fixup struct {
	pos  int // offset of the rel field in the buffer
	size int // 1 or 4
	next uint64
}

// Asm assembles x86-64 machine code at a fixed base address.
type Asm struct {
	base   uint64 // address of buf[0]
	start  int    // offset in buf of the first emitted byte
	buf    []byte
	labels []*Label
	err    error
}

// NewAsm returns an assembler whose first emitted byte lands at base.
func NewAsm(base uint64) *Asm { return &Asm{base: base} }

// AppendAsm returns an assembler that appends to dst, its first emitted
// byte landing at base; Finish returns dst extended by the code. It is
// a value so that a caller assembling one short sequence into a buffer
// it owns keeps the assembler on its stack.
func AppendAsm(dst []byte, base uint64) Asm {
	return Asm{base: base - uint64(len(dst)), start: len(dst), buf: dst}
}

// Base returns the assembler's base address.
func (a *Asm) Base() uint64 { return a.base + uint64(a.start) }

// Addr returns the address of the next emitted byte.
func (a *Asm) Addr() uint64 { return a.base + uint64(len(a.buf)) }

// Len returns the number of bytes emitted so far.
func (a *Asm) Len() int { return len(a.buf) - a.start }

// Err returns the first assembly error, if any.
func (a *Asm) Err() error { return a.err }

// Finish resolves all label fixups and returns the machine code (after
// the bytes AppendAsm was given, if any).
func (a *Asm) Finish() ([]byte, error) {
	for _, l := range a.labels {
		if !l.bound {
			a.fail("unbound label with %d fixups", len(l.fixups))
			break
		}
	}
	if a.err != nil {
		return nil, a.err
	}
	return a.buf, nil
}

// MustFinish is Finish for programmatic code generation where an
// assembly error is a bug.
func (a *Asm) MustFinish() []byte {
	b, err := a.Finish()
	if err != nil {
		panic(err)
	}
	return b
}

func (a *Asm) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("x86 asm: "+format, args...)
	}
}

// NewLabel creates an unbound label.
func (a *Asm) NewLabel() *Label {
	l := &Label{}
	a.labels = append(a.labels, l)
	return l
}

// Bind binds the label to the current position.
func (a *Asm) Bind(l *Label) {
	if l.bound {
		a.fail("label bound twice")
		return
	}
	l.bound = true
	l.addr = a.Addr()
	for _, f := range l.fixups {
		a.patchRel(f, l.addr)
	}
	l.fixups = nil
}

func (a *Asm) patchRel(f fixup, target uint64) {
	rel := int64(target) - int64(f.next)
	switch f.size {
	case 1:
		if rel < -128 || rel > 127 {
			a.fail("rel8 out of range: %d", rel)
			return
		}
		a.buf[f.pos] = byte(int8(rel))
	case 4:
		if rel < -1<<31 || rel > 1<<31-1 {
			a.fail("rel32 out of range: %d", rel)
			return
		}
		put32(a.buf[f.pos:], uint32(int32(rel)))
	}
}

func (a *Asm) emitRel(l *Label, size int) {
	pos := len(a.buf)
	for i := 0; i < size; i++ {
		a.buf = append(a.buf, 0)
	}
	f := fixup{pos: pos, size: size, next: a.Addr()}
	if l.bound {
		a.patchRel(f, l.addr)
	} else {
		l.fixups = append(l.fixups, f)
	}
}

// Raw emits literal bytes.
func (a *Asm) Raw(bs ...byte) { a.buf = append(a.buf, bs...) }

// Relocate emits the non-branch instruction i re-encoded for the
// current position (AppendRelocated). An out-of-range displacement
// becomes the assembler's error.
func (a *Asm) Relocate(i *Inst) {
	out, err := AppendRelocated(a.buf, i, a.Addr())
	if err != nil && a.err == nil {
		a.err = err
	}
	a.buf = out
}

// Patch overwrites one already emitted byte, off bytes into the code.
func (a *Asm) Patch(off int, b byte) { a.buf[a.start+off] = b }

// Imm32 emits a little-endian 32-bit immediate.
func (a *Asm) Imm32(v int32) {
	a.buf = append(a.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Imm64 emits a little-endian 64-bit immediate.
func (a *Asm) Imm64(v uint64) {
	for i := 0; i < 8; i++ {
		a.buf = append(a.buf, byte(v>>(8*uint(i))))
	}
}

// rex emits a REX prefix if needed (or always when w is set).
func (a *Asm) rex(w bool, reg, index, base Reg) {
	var b byte = 0x40
	if w {
		b |= 0x08
	}
	if reg != NoReg && reg.isExt() {
		b |= 0x04
	}
	if index != NoReg && index.isExt() {
		b |= 0x02
	}
	if base != NoReg && base.isExt() {
		b |= 0x01
	}
	if b != 0x40 || w {
		a.buf = append(a.buf, b)
	}
}

// modRMReg emits a ModRM byte with a register r/m operand.
func (a *Asm) modRMReg(reg byte, rm Reg) {
	a.buf = append(a.buf, 0xC0|reg<<3|rm.lowBits())
}

// modRMMem emits ModRM (+SIB, +disp) for a memory operand.
func (a *Asm) modRMMem(reg byte, m Mem) {
	if m.RIPRel {
		a.buf = append(a.buf, 0x00|reg<<3|0x05)
		a.Imm32(m.Disp)
		return
	}
	if m.Base == NoReg && m.Index == NoReg {
		// Absolute disp32 via SIB with no base/index.
		a.buf = append(a.buf, 0x00|reg<<3|0x04, 0x25)
		a.Imm32(m.Disp)
		return
	}
	scaleBits := byte(0)
	switch m.Scale {
	case 0, 1:
		scaleBits = 0
	case 2:
		scaleBits = 1
	case 4:
		scaleBits = 2
	case 8:
		scaleBits = 3
	default:
		a.fail("bad scale %d", m.Scale)
		return
	}
	if m.Index == RSP {
		a.fail("rsp cannot be an index register")
		return
	}

	needSIB := m.Index != NoReg || m.Base == RSP || m.Base == R12 || m.Base == NoReg

	// Choose mod / displacement size.
	mod := byte(0)
	dispSize := 0
	switch {
	case m.Disp == 0 && m.Base != RBP && m.Base != R13 && m.Base != NoReg:
		mod, dispSize = 0, 0
	case m.Disp >= -128 && m.Disp <= 127 && m.Base != NoReg:
		mod, dispSize = 1, 1
	default:
		mod, dispSize = 2, 4
	}

	if needSIB {
		index := byte(4) // none
		if m.Index != NoReg {
			index = m.Index.lowBits()
		}
		base := byte(5)
		if m.Base != NoReg {
			base = m.Base.lowBits()
		} else {
			// No base: must use mod=00 + disp32.
			mod, dispSize = 0, 4
		}
		a.buf = append(a.buf, mod<<6|reg<<3|0x04, scaleBits<<6|index<<3|base)
	} else {
		a.buf = append(a.buf, mod<<6|reg<<3|m.Base.lowBits())
	}

	switch dispSize {
	case 1:
		a.buf = append(a.buf, byte(int8(m.Disp)))
	case 4:
		a.Imm32(m.Disp)
	}
}

// --- moves ---

// MovRegReg64 emits mov dst, src (64-bit).
func (a *Asm) MovRegReg64(dst, src Reg) {
	a.rex(true, src, NoReg, dst)
	a.Raw(0x89)
	a.modRMReg(src.lowBits(), dst)
}

// MovRegReg32 emits mov dst32, src32 (zero-extending).
func (a *Asm) MovRegReg32(dst, src Reg) {
	a.rex(false, src, NoReg, dst)
	a.Raw(0x89)
	a.modRMReg(src.lowBits(), dst)
}

// MovRegImm64 emits movabs dst, imm (10 bytes).
func (a *Asm) MovRegImm64(dst Reg, imm uint64) {
	a.rex(true, NoReg, NoReg, dst)
	a.Raw(0xB8 | dst.lowBits())
	a.Imm64(imm)
}

// MovRegImm32 emits mov dst32, imm32 (zero-extends into dst64).
func (a *Asm) MovRegImm32(dst Reg, imm uint32) {
	a.rex(false, NoReg, NoReg, dst)
	a.Raw(0xB8 | dst.lowBits())
	a.Imm32(int32(imm))
}

// MovMemReg64 emits mov [m], src (64-bit store).
func (a *Asm) MovMemReg64(m Mem, src Reg) {
	a.rex(true, src, m.Index, m.Base)
	a.Raw(0x89)
	a.modRMMem(src.lowBits(), m)
}

// MovMemReg32 emits mov [m], src32.
func (a *Asm) MovMemReg32(m Mem, src Reg) {
	a.rex(false, src, m.Index, m.Base)
	a.Raw(0x89)
	a.modRMMem(src.lowBits(), m)
}

// MovMemReg8 emits mov [m], src8 (low byte of src).
func (a *Asm) MovMemReg8(m Mem, src Reg) {
	// SPL/BPL/SIL/DIL need a REX prefix; we only use AL/CL/DL/BL or
	// extended registers, which encode naturally.
	a.rex(false, src, m.Index, m.Base)
	a.Raw(0x88)
	a.modRMMem(src.lowBits(), m)
}

// MovRegMem64 emits mov dst, [m] (64-bit load).
func (a *Asm) MovRegMem64(dst Reg, m Mem) {
	a.rex(true, dst, m.Index, m.Base)
	a.Raw(0x8B)
	a.modRMMem(dst.lowBits(), m)
}

// MovRegMem32 emits mov dst32, [m].
func (a *Asm) MovRegMem32(dst Reg, m Mem) {
	a.rex(false, dst, m.Index, m.Base)
	a.Raw(0x8B)
	a.modRMMem(dst.lowBits(), m)
}

// MovZXRegMem8 emits movzx dst32, byte [m].
func (a *Asm) MovZXRegMem8(dst Reg, m Mem) {
	a.rex(false, dst, m.Index, m.Base)
	a.Raw(0x0F, 0xB6)
	a.modRMMem(dst.lowBits(), m)
}

// MovMemImm32 emits mov dword [m], imm32.
func (a *Asm) MovMemImm32(m Mem, imm uint32) {
	a.rex(false, NoReg, m.Index, m.Base)
	a.Raw(0xC7)
	a.modRMMem(0, m)
	a.Imm32(int32(imm))
}

// MovMemImm32Sx64 emits mov qword [m], imm32 (sign-extended).
func (a *Asm) MovMemImm32Sx64(m Mem, imm int32) {
	a.rex(true, NoReg, m.Index, m.Base)
	a.Raw(0xC7)
	a.modRMMem(0, m)
	a.Imm32(imm)
}

// MovMemImm8 emits mov byte [m], imm8.
func (a *Asm) MovMemImm8(m Mem, imm uint8) {
	a.rex(false, NoReg, m.Index, m.Base)
	a.Raw(0xC6)
	a.modRMMem(0, m)
	a.Raw(imm)
}

// Lea emits lea dst, [m] (64-bit).
func (a *Asm) Lea(dst Reg, m Mem) {
	a.rex(true, dst, m.Index, m.Base)
	a.Raw(0x8D)
	a.modRMMem(dst.lowBits(), m)
}

// --- ALU ---

// aluRegReg64 emits op dst, src using the /r memory-destination form.
func (a *Asm) aluRegReg64(opcode byte, dst, src Reg) {
	a.rex(true, src, NoReg, dst)
	a.Raw(opcode)
	a.modRMReg(src.lowBits(), dst)
}

// AddRegReg64 emits add dst, src.
func (a *Asm) AddRegReg64(dst, src Reg) { a.aluRegReg64(0x01, dst, src) }

// SubRegReg64 emits sub dst, src.
func (a *Asm) SubRegReg64(dst, src Reg) { a.aluRegReg64(0x29, dst, src) }

// AdcRegReg64 emits adc dst, src.
func (a *Asm) AdcRegReg64(dst, src Reg) { a.aluRegReg64(0x11, dst, src) }

// SbbRegReg64 emits sbb dst, src.
func (a *Asm) SbbRegReg64(dst, src Reg) { a.aluRegReg64(0x19, dst, src) }

// AndRegReg64 emits and dst, src.
func (a *Asm) AndRegReg64(dst, src Reg) { a.aluRegReg64(0x21, dst, src) }

// OrRegReg64 emits or dst, src.
func (a *Asm) OrRegReg64(dst, src Reg) { a.aluRegReg64(0x09, dst, src) }

// XorRegReg64 emits xor dst, src.
func (a *Asm) XorRegReg64(dst, src Reg) { a.aluRegReg64(0x31, dst, src) }

// CmpRegReg64 emits cmp dst, src.
func (a *Asm) CmpRegReg64(dst, src Reg) { a.aluRegReg64(0x39, dst, src) }

// TestRegReg64 emits test dst, src.
func (a *Asm) TestRegReg64(dst, src Reg) { a.aluRegReg64(0x85, dst, src) }

// XorRegReg32 emits xor dst32, src32 (the idiomatic zeroing form).
func (a *Asm) XorRegReg32(dst, src Reg) {
	a.rex(false, src, NoReg, dst)
	a.Raw(0x31)
	a.modRMReg(src.lowBits(), dst)
}

// aluRegImm64 emits op dst, imm using group-1 with the short imm8 form
// when possible.
func (a *Asm) aluRegImm64(regField byte, dst Reg, imm int32) {
	a.rex(true, NoReg, NoReg, dst)
	if imm >= -128 && imm <= 127 {
		a.Raw(0x83)
		a.modRMReg(regField, dst)
		a.Raw(byte(int8(imm)))
		return
	}
	a.Raw(0x81)
	a.modRMReg(regField, dst)
	a.Imm32(imm)
}

// AddRegImm64 emits add dst, imm.
func (a *Asm) AddRegImm64(dst Reg, imm int32) { a.aluRegImm64(0, dst, imm) }

// OrRegImm64 emits or dst, imm.
func (a *Asm) OrRegImm64(dst Reg, imm int32) { a.aluRegImm64(1, dst, imm) }

// AdcRegImm64 emits adc dst, imm.
func (a *Asm) AdcRegImm64(dst Reg, imm int32) { a.aluRegImm64(2, dst, imm) }

// SbbRegImm64 emits sbb dst, imm.
func (a *Asm) SbbRegImm64(dst Reg, imm int32) { a.aluRegImm64(3, dst, imm) }

// AndRegImm64 emits and dst, imm.
func (a *Asm) AndRegImm64(dst Reg, imm int32) { a.aluRegImm64(4, dst, imm) }

// SubRegImm64 emits sub dst, imm.
func (a *Asm) SubRegImm64(dst Reg, imm int32) { a.aluRegImm64(5, dst, imm) }

// XorRegImm64 emits xor dst, imm.
func (a *Asm) XorRegImm64(dst Reg, imm int32) { a.aluRegImm64(6, dst, imm) }

// CmpRegImm64 emits cmp dst, imm.
func (a *Asm) CmpRegImm64(dst Reg, imm int32) { a.aluRegImm64(7, dst, imm) }

// AddMemReg64 emits add [m], src (read-modify-write store).
func (a *Asm) AddMemReg64(m Mem, src Reg) {
	a.rex(true, src, m.Index, m.Base)
	a.Raw(0x01)
	a.modRMMem(src.lowBits(), m)
}

// AddRegMem64 emits add dst, [m].
func (a *Asm) AddRegMem64(dst Reg, m Mem) {
	a.rex(true, dst, m.Index, m.Base)
	a.Raw(0x03)
	a.modRMMem(dst.lowBits(), m)
}

// CmpMemImm8 emits cmp dword [m], imm8 (sign-extended), the shape of
// the paper's cmpl $77,-4(%rbx) example.
func (a *Asm) CmpMemImm8(m Mem, imm int8) {
	a.rex(false, NoReg, m.Index, m.Base)
	a.Raw(0x83)
	a.modRMMem(7, m)
	a.Raw(byte(imm))
}

// AddMemImm8x64 emits add qword [m], imm8 (sign-extended RMW).
func (a *Asm) AddMemImm8x64(m Mem, imm int8) {
	a.rex(true, NoReg, m.Index, m.Base)
	a.Raw(0x83)
	a.modRMMem(0, m)
	a.Raw(byte(imm))
}

// ShrRegCL64 emits shr dst, cl.
func (a *Asm) ShrRegCL64(dst Reg) {
	a.rex(true, NoReg, NoReg, dst)
	a.Raw(0xD3)
	a.modRMReg(5, dst)
}

// IncMem32 emits inc dword [m].
func (a *Asm) IncMem32(m Mem) {
	a.rex(false, NoReg, m.Index, m.Base)
	a.Raw(0xFF)
	a.modRMMem(0, m)
}

// ImulRegReg64 emits imul dst, src.
func (a *Asm) ImulRegReg64(dst, src Reg) {
	a.rex(true, dst, NoReg, src)
	a.Raw(0x0F, 0xAF)
	a.modRMReg(dst.lowBits(), src)
}

// ImulRegRegImm32 emits imul dst, src, imm32.
func (a *Asm) ImulRegRegImm32(dst, src Reg, imm int32) {
	a.rex(true, dst, NoReg, src)
	a.Raw(0x69)
	a.modRMReg(dst.lowBits(), src)
	a.Imm32(imm)
}

// ShlRegImm64 emits shl dst, imm.
func (a *Asm) ShlRegImm64(dst Reg, imm uint8) {
	a.rex(true, NoReg, NoReg, dst)
	a.Raw(0xC1)
	a.modRMReg(4, dst)
	a.Raw(imm)
}

// ShrRegImm64 emits shr dst, imm.
func (a *Asm) ShrRegImm64(dst Reg, imm uint8) {
	a.rex(true, NoReg, NoReg, dst)
	a.Raw(0xC1)
	a.modRMReg(5, dst)
	a.Raw(imm)
}

// NegReg64 emits neg dst.
func (a *Asm) NegReg64(dst Reg) {
	a.rex(true, NoReg, NoReg, dst)
	a.Raw(0xF7)
	a.modRMReg(3, dst)
}

// NotReg64 emits not dst.
func (a *Asm) NotReg64(dst Reg) {
	a.rex(true, NoReg, NoReg, dst)
	a.Raw(0xF7)
	a.modRMReg(2, dst)
}

// Setcc emits setcc dst8. For rsp..rdi a bare REX prefix is emitted so
// the encoding selects spl..dil rather than the legacy high-byte
// registers.
func (a *Asm) Setcc(cc Cond, dst Reg) {
	if dst >= RSP && dst <= RDI {
		a.Raw(0x40)
	} else {
		a.rex(false, NoReg, NoReg, dst)
	}
	a.Raw(0x0F, 0x90|byte(cc))
	a.modRMReg(0, dst)
}

// Cmc emits cmc (complement carry flag).
func (a *Asm) Cmc() { a.Raw(0xF5) }

// Clc emits clc (clear carry flag).
func (a *Asm) Clc() { a.Raw(0xF8) }

// Stc emits stc (set carry flag).
func (a *Asm) Stc() { a.Raw(0xF9) }

// TestMemImm8 emits test byte [m], imm8 — the victim instruction shape
// from the paper's Figure 2 (testb $0x2,0x18(%rbx)).
func (a *Asm) TestMemImm8(m Mem, imm uint8) {
	a.rex(false, NoReg, m.Index, m.Base)
	a.Raw(0xF6)
	a.modRMMem(0, m)
	a.Raw(imm)
}

// --- stack ---

// PushReg emits push src.
func (a *Asm) PushReg(src Reg) {
	a.rex(false, NoReg, NoReg, src)
	a.Raw(0x50 | src.lowBits())
}

// PopReg emits pop dst.
func (a *Asm) PopReg(dst Reg) {
	a.rex(false, NoReg, NoReg, dst)
	a.Raw(0x58 | dst.lowBits())
}

// PushImm32 emits push imm32 (sign-extended to 64 bits).
func (a *Asm) PushImm32(imm int32) {
	a.Raw(0x68)
	a.Imm32(imm)
}

// Pushfq emits pushfq.
func (a *Asm) Pushfq() { a.Raw(0x9C) }

// Popfq emits popfq.
func (a *Asm) Popfq() { a.Raw(0x9D) }

// --- control flow ---

// rel32 emits the displacement of a branch to an absolute target, the
// branch's last field. A target beyond ±2 GiB of the branch's end has no
// rel32 form: the assembler records ErrRelocRange, as Relocate does for
// a RIP-relative operand, instead of emitting a wrapped displacement.
func (a *Asm) rel32(target uint64) {
	rel := int64(target) - int64(a.Addr()+4)
	if rel != int64(int32(rel)) {
		a.failRange(target, rel)
	}
	a.Imm32(int32(rel))
}

// failRange records the ErrRelocRange of a branch field about to be
// emitted.
func (a *Asm) failRange(target uint64, rel int64) {
	if a.err == nil {
		a.err = fmt.Errorf("%w: branch at %#x -> target %#x rel %d", ErrRelocRange, a.Addr(), target, rel)
	}
}

// JmpRel32 emits jmp rel32 to an absolute target.
func (a *Asm) JmpRel32(target uint64) {
	a.Raw(0xE9)
	a.rel32(target)
}

// Jmp emits jmp rel32 to a label.
func (a *Asm) Jmp(l *Label) {
	a.Raw(0xE9)
	a.emitRel(l, 4)
}

// JmpShort emits jmp rel8 to a label (caller guarantees range).
func (a *Asm) JmpShort(l *Label) {
	a.Raw(0xEB)
	a.emitRel(l, 1)
}

// Jcc emits a 6-byte jcc rel32 to a label.
func (a *Asm) Jcc(cc Cond, l *Label) {
	a.Raw(0x0F, 0x80|byte(cc))
	a.emitRel(l, 4)
}

// JccShort emits a 2-byte jcc rel8 to a label.
func (a *Asm) JccShort(cc Cond, l *Label) {
	a.Raw(0x70 | byte(cc))
	a.emitRel(l, 1)
}

// JccRel32 emits jcc rel32 to an absolute target.
func (a *Asm) JccRel32(cc Cond, target uint64) {
	a.Raw(0x0F, 0x80|byte(cc))
	a.rel32(target)
}

// CallRel32 emits call rel32 to an absolute target.
func (a *Asm) CallRel32(target uint64) {
	a.Raw(0xE8)
	a.rel32(target)
}

// Call emits call rel32 to a label.
func (a *Asm) Call(l *Label) {
	a.Raw(0xE8)
	a.emitRel(l, 4)
}

// CallReg emits call *src.
func (a *Asm) CallReg(src Reg) {
	a.rex(false, NoReg, NoReg, src)
	a.Raw(0xFF)
	a.modRMReg(2, src)
}

// JmpReg emits jmp *src.
func (a *Asm) JmpReg(src Reg) {
	a.rex(false, NoReg, NoReg, src)
	a.Raw(0xFF)
	a.modRMReg(4, src)
}

// JmpMem emits jmp *[m] (e.g. a jump-table dispatch).
func (a *Asm) JmpMem(m Mem) {
	a.rex(false, NoReg, m.Index, m.Base)
	a.Raw(0xFF)
	a.modRMMem(4, m)
}

// Ret emits ret.
func (a *Asm) Ret() { a.Raw(0xC3) }

// Int3 emits the one-byte breakpoint.
func (a *Asm) Int3() { a.Raw(0xCC) }

// Nop emits a one-byte nop.
func (a *Asm) Nop() { a.Raw(0x90) }

// Endbr64 emits the CET indirect-branch landing pad (F3 0F 1E FA). On
// non-CET hardware it executes as a hint nop, so it is safe to emit
// unconditionally; the superset-cet disassembly mode uses it as a
// known-good code anchor.
func (a *Asm) Endbr64() { a.Raw(0xF3, 0x0F, 0x1E, 0xFA) }

// Ud2 emits ud2.
func (a *Asm) Ud2() { a.Raw(0x0F, 0x0B) }
