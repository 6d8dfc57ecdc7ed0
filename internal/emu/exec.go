package emu

import (
	"fmt"
	"math/bits"

	"e9patch/internal/x86"
)

// Step fetches, decodes and executes one instruction (or services a
// runtime-call / exit-sentinel address). It fetches into and decodes
// into buffers the machine owns, so a step allocates nothing.
func (m *Machine) Step() error {
	if handled, err := m.stepSpecial(); handled || err != nil {
		return err
	}
	if err := m.fetchInto(&m.inst, m.fetch[:], m.RIP); err != nil {
		return err
	}
	return m.execDecoded(&m.inst)
}

// fetchInto fetches the instruction at pc into buf, a 15-byte window,
// and decodes it into inst, which aliases buf. Its errors are the
// fetch fault of an instruction whose first byte lies on an unmapped
// page, and the decode error. Only that page counts: the window of an
// instruction near the end of a mapped page may cross into an
// unmapped one, and the bytes past the instruction are never executed.
func (m *Machine) fetchInto(inst *x86.Inst, buf []byte, pc uint64) error {
	if !m.Mem.readInto(buf, pc) && !m.Mem.Mapped(pc) {
		return fmt.Errorf("emu: fetch fault at %#x", pc)
	}
	if err := x86.DecodeInto(inst, buf, pc); err != nil {
		return fmt.Errorf("emu: at %#x: %w", pc, err)
	}
	return nil
}

// stepSpecial services the two magic classes of RIP values — the exit
// sentinel and runtime-call addresses — without touching code bytes.
// It reports whether RIP was special. Step performs it before every
// fetch; the ir engine performs it at block
// boundaries, which is equivalent because decodeBlock puts a boundary
// in front of every special address. A runtime binding is the only
// code that may change m.Runtime during a run.
func (m *Machine) stepSpecial() (bool, error) {
	if m.RIP == m.ExitAddr {
		m.halted = true
		m.ExitCode = m.Regs[x86.RAX]
		return true, nil
	}
	if fn, ok := m.Runtime[m.RIP]; ok {
		// Native runtime call: consume the return address pushed by
		// the calling code, run the binding, return. The call costs
		// its pop's Mem and Runtime.
		ret, err := m.pop()
		if err != nil {
			return true, err
		}
		m.Counters.RuntimeCalls++
		m.Counters.Cycles += m.Cost.Mem + m.Cost.Runtime
		if err := fn(m); err != nil {
			return true, err
		}
		m.RIP = ret
		return true, nil
	}
	return false, nil
}

// runtimeBounds returns the number of bound runtime addresses and the
// lowest and highest of them (lo > hi when there are none), so the ir
// engine can rule a RIP out with two compares and leave the map alone.
func (m *Machine) runtimeBounds() (n int, lo, hi uint64) {
	lo = ^uint64(0)
	for addr := range m.Runtime {
		lo, hi = min(lo, addr), max(hi, addr)
	}
	return len(m.Runtime), lo, hi
}

// execDecoded executes one already-decoded instruction exactly as the
// fetch-decode path of Step: the trace callback, its staticCost,
// charged before it runs with what a fault leaves unrun taken back,
// dispatch and the RIP update. The caller must guarantee inst.Addr ==
// RIP; the ir engine satisfies this because straight-line execution
// leaves RIP at the next cached Addr.
func (m *Machine) execDecoded(inst *x86.Inst) error {
	if m.Trace != nil {
		m.Trace(inst)
	}
	t, unrun := staticCost(inst, m.Cost.FarDistance)
	m.Counters.charge(&t, &m.Cost)
	rip, err := m.exec(inst, inst.Addr+uint64(inst.Len))
	if err != nil {
		m.Counters.refund(&unrun, &m.Cost)
		return faultAt(inst, err)
	}
	m.RIP = rip
	return nil
}

// faultAt is the error of inst failing with err.
func faultAt(inst *x86.Inst, err error) error {
	return fmt.Errorf("emu: at %#x (% x): %w", inst.Addr, inst.Bytes, err)
}

// width returns the operand width in bytes for a non-8-bit opcode.
func width(inst *x86.Inst) int {
	if inst.Rex&0x08 != 0 {
		return 8
	}
	for i := 0; i < inst.NPrefix; i++ {
		if inst.Bytes[i] == 0x66 {
			return 2
		}
	}
	return 4
}

func maskFor(w int) uint64 {
	if w == 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * uint(w))) - 1
}

// gpr resolves register r, as inst names it at width w, to the slot
// that holds it and the bit offset of its low byte: without a REX
// prefix the byte registers 4–7 are ah, ch, dh and bh, bits 8–15 of
// rax, rcx, rdx and rbx.
func gpr(inst *x86.Inst, r x86.Reg, w int) (x86.Reg, uint) {
	if w == 1 && inst.Rex == 0 && r&^3 == 4 {
		return r - 4, 8
	}
	return r, 0
}

// regRead returns the low w bytes of register r as inst names it.
func (m *Machine) regRead(inst *x86.Inst, r x86.Reg, w int) uint64 {
	r, sh := gpr(inst, r, w)
	return m.Regs[r] >> sh & maskFor(w)
}

// regWrite stores v into register r as inst names it, with x86-64
// merge semantics: 32-bit writes zero-extend; 8/16-bit writes merge.
func (m *Machine) regWrite(inst *x86.Inst, r x86.Reg, v uint64, w int) {
	r, sh := gpr(inst, r, w)
	switch w {
	case 8:
		m.Regs[r] = v
	case 4:
		m.Regs[r] = v & 0xFFFFFFFF
	default:
		mask := maskFor(w) << sh
		m.Regs[r] = m.Regs[r]&^mask | v<<sh&mask
	}
}

// ea computes the effective address of the memory operand.
func (m *Machine) ea(inst *x86.Inst) uint64 {
	if inst.RIPRel {
		return inst.Addr + uint64(inst.Len) + uint64(inst.Disp())
	}
	var a uint64
	if inst.MemBase != x86.NoReg && inst.MemBase != x86.RIP {
		a = m.Regs[inst.MemBase]
	}
	if inst.MemIndex != x86.NoReg {
		a += m.Regs[inst.MemIndex] * uint64(inst.MemScale)
	}
	return a + uint64(inst.Disp())
}

// modrmReg returns the ModRM reg-field register.
func modrmReg(inst *x86.Inst) x86.Reg {
	return x86.Reg((inst.ModRM>>3)&7 | (inst.Rex>>2&1)<<3)
}

// modrmRM returns the ModRM r/m-field register (mod == 3 only).
func modrmRM(inst *x86.Inst) x86.Reg {
	return x86.Reg(inst.ModRM&7 | (inst.Rex&1)<<3)
}

func rmIsReg(inst *x86.Inst) bool { return inst.ModRM>>6 == 3 }

// rmRead reads the r/m operand.
func (m *Machine) rmRead(inst *x86.Inst, w int) (uint64, error) {
	if rmIsReg(inst) {
		return m.regRead(inst, modrmRM(inst), w), nil
	}
	return m.Mem.read(m.ea(inst), w)
}

// rmWrite writes the r/m operand.
func (m *Machine) rmWrite(inst *x86.Inst, v uint64, w int) error {
	if rmIsReg(inst) {
		m.regWrite(inst, modrmRM(inst), v, w)
		return nil
	}
	return m.Mem.write(m.ea(inst), v, w)
}

func (m *Machine) push(v uint64) error {
	sp := m.Regs[x86.RSP] - 8
	m.Regs[x86.RSP] = sp
	return m.Mem.write(sp, v, 8)
}

func (m *Machine) pop() (uint64, error) {
	sp := m.Regs[x86.RSP]
	v, err := m.Mem.read(sp, 8)
	if err != nil {
		return 0, err
	}
	m.Regs[x86.RSP] = sp + 8
	return v, nil
}

// setFlag sets or clears one RFLAGS bit.
func (m *Machine) setFlag(bit uint64, on bool) {
	if on {
		m.Flags |= bit
	} else {
		m.Flags &^= bit
	}
}

// cond evaluates a condition code against RFLAGS.
func (m *Machine) cond(cc x86.Cond) bool {
	var eager flagRec
	return eager.cond(cc, m.Flags)
}

// exec executes a decoded instruction, charging only its run-time
// costs (cost.go); next is the fallthrough RIP.
func (m *Machine) exec(inst *x86.Inst, next uint64) (uint64, error) {
	op := inst.Opcode
	if cc, ok := jccCond(inst); ok {
		if m.cond(cc) {
			return m.branch(next, inst.Target()), nil
		}
		return next, nil
	}
	if inst.TwoByte {
		return m.execTwoByte(inst, next)
	}
	if aluOp, write, dst, src, ok := aluForm(inst); ok {
		return next, m.execALU(inst, aluOp, write, dst, src)
	}

	switch {
	case op >= 0x50 && op <= 0x57: // push r
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		return next, m.push(m.Regs[r])

	case op >= 0x58 && op <= 0x5F: // pop r
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		v, err := m.pop()
		if err != nil {
			return 0, err
		}
		m.Regs[r] = v
		return next, nil

	case op == 0x63: // movsxd r64, r/m32
		v, err := m.rmRead(inst, 4)
		if err != nil {
			return 0, err
		}
		m.regWrite(inst, modrmReg(inst), uint64(int64(int32(uint32(v)))), 8)
		return next, nil

	case op == 0x68 || op == 0x6A: // push imm
		return next, m.push(uint64(inst.Imm()))

	case op == 0x69 || op == 0x6B: // imul r, r/m, imm
		w := width(inst)
		a, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		m.regWrite(inst, modrmReg(inst), m.imul(a, uint64(inst.Imm()), w), w)
		return next, nil

	case op == 0x86 || op == 0x87: // xchg r/m, r
		w := pairWidth(inst)
		a, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		r := modrmReg(inst)
		b := m.regRead(inst, r, w)
		if err := m.rmWrite(inst, b, w); err != nil {
			return 0, err
		}
		m.regWrite(inst, r, a, w)
		return next, nil

	case op >= 0x88 && op <= 0x8B: // mov r/m, r (88/89); mov r, r/m (8A/8B)
		w := pairWidth(inst)
		if op < 0x8A {
			return next, m.rmWrite(inst, m.regRead(inst, modrmReg(inst), w), w)
		}
		v, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		m.regWrite(inst, modrmReg(inst), v, w)
		return next, nil

	case op == 0x8D: // lea
		m.regWrite(inst, modrmReg(inst), m.ea(inst), width(inst))
		return next, nil

	case op == 0x8F: // pop r/m
		v, err := m.pop()
		if err != nil {
			return 0, err
		}
		return next, m.rmWrite(inst, v, 8)

	case op == 0x90: // nop
		return next, nil

	case op >= 0x91 && op <= 0x97: // xchg rax, r
		w := width(inst)
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		a := m.regRead(inst, x86.RAX, w)
		m.regWrite(inst, x86.RAX, m.regRead(inst, r, w), w)
		m.regWrite(inst, r, a, w)
		return next, nil

	case op == 0x98: // cdqe / cwde
		if inst.Rex&8 != 0 {
			m.Regs[x86.RAX] = uint64(int64(int32(uint32(m.Regs[x86.RAX]))))
		} else {
			m.regWrite(inst, x86.RAX, uint64(uint32(int32(int16(uint16(m.Regs[x86.RAX]))))), 4)
		}
		return next, nil

	case op == 0x99: // cqo / cdq
		if inst.Rex&8 != 0 {
			m.Regs[x86.RDX] = uint64(int64(m.Regs[x86.RAX]) >> 63)
		} else {
			m.regWrite(inst, x86.RDX, uint64(uint32(int32(uint32(m.Regs[x86.RAX]))>>31)), 4)
		}
		return next, nil

	case op == 0x9C: // pushfq
		return next, m.push(m.Flags)

	case op == 0x9D: // popfq
		v, err := m.pop()
		if err != nil {
			return 0, err
		}
		m.Flags = v | flagsAlways
		return next, nil

	case op >= 0xB0 && op <= 0xBF: // mov r8, imm8 (B0–B7); mov r, imm (movabs at 64 bits)
		w := 1
		if op >= 0xB8 {
			w = width(inst)
		}
		m.regWrite(inst, x86.Reg(op&7|(inst.Rex&1)<<3), uint64(inst.Imm()), w)
		return next, nil

	case op == 0xC0 || op == 0xC1 || op == 0xD0 || op == 0xD1 || op == 0xD2 || op == 0xD3:
		return next, m.execShift(inst)

	case op == 0xC2 || op == 0xC3: // ret [imm16]
		ret, err := m.pop()
		if err != nil {
			return 0, err
		}
		if op == 0xC2 {
			m.Regs[x86.RSP] += uint64(inst.Imm()) & 0xFFFF
		}
		return m.branch(next, ret), nil

	case op == 0xC6 || op == 0xC7: // mov r/m, imm
		w := pairWidth(inst)
		return next, m.rmWrite(inst, uint64(inst.Imm())&maskFor(w), w)

	case op == 0xC9: // leave
		m.Regs[x86.RSP] = m.Regs[x86.RBP]
		v, err := m.pop()
		if err != nil {
			return 0, err
		}
		m.Regs[x86.RBP] = v
		return next, nil

	case op == 0xCC: // int3 — B0 signal dispatch
		tramp, ok := m.SigTab[inst.Addr]
		if !ok {
			return 0, fmt.Errorf("unexpected int3 (no SIGTRAP handler)")
		}
		m.Counters.Signals++
		m.Counters.Cycles += m.Cost.Signal
		return tramp, nil

	case op == 0xE8: // call rel32
		return inst.Target(), m.push(next)

	case op == 0xE9 || op == 0xEB: // jmp
		return inst.Target(), nil

	case op == 0xF4: // hlt
		m.halted = true
		m.ExitCode = m.Regs[x86.RAX]
		return next, nil

	case op == 0xF5: // cmc
		m.Flags ^= FlagCF
		return next, nil

	case op == 0xF8 || op == 0xF9: // clc, stc
		m.setFlag(FlagCF, op == 0xF9)
		return next, nil

	case op == 0xFC || op == 0xFD: // cld, std
		m.setFlag(FlagDF, op == 0xFD)
		return next, nil

	case op == 0xF6 || op == 0xF7: // group 3
		return next, m.execGroup3(inst)

	case (op == 0xFE || op == 0xFF) && (inst.ModRM>>3)&7 <= 1: // inc/dec r/m
		w := pairWidth(inst)
		v, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		return next, m.rmWrite(inst, m.incDec(v, w, (inst.ModRM>>3)&7 != 0), w)

	case op == 0xFE: // FE /2–/7, which the hardware rejects
		return 0, fmt.Errorf("invalid opcode fe /%d (#UD)", (inst.ModRM>>3)&7)

	case op == 0xFF: // group 5
		return m.execGroup5(inst, next)
	}
	return 0, fmt.Errorf("unimplemented opcode %#02x", op)
}

func (m *Machine) execTwoByte(inst *x86.Inst, next uint64) (uint64, error) {
	op := inst.Opcode
	switch {
	case op == 0x0B: // ud2
		return 0, ErrUd2

	case op == 0x1E || op == 0x1F || op == 0x0D || (op >= 0x18 && op <= 0x1D): // hint nops
		return next, nil

	case op >= 0x40 && op <= 0x4F: // cmovcc
		w := width(inst)
		v, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		r := modrmReg(inst)
		if m.cond(x86.Cond(op & 0xF)) {
			m.regWrite(inst, r, v, w)
		} else if w == 4 {
			// 32-bit cmov zero-extends even when not taken.
			m.regWrite(inst, r, m.regRead(inst, r, 4), 4)
		}
		return next, nil

	case op >= 0x90 && op <= 0x9F: // setcc
		var v uint64
		if m.cond(x86.Cond(op & 0xF)) {
			v = 1
		}
		return next, m.rmWrite(inst, v, 1)

	case op == 0xAF: // imul r, r/m
		w := width(inst)
		a, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		r := modrmReg(inst)
		m.regWrite(inst, r, m.imul(m.regRead(inst, r, w), a, w), w)
		return next, nil

	case op == 0xB6 || op == 0xB7: // movzx
		sw := 1
		if op == 0xB7 {
			sw = 2
		}
		v, err := m.rmRead(inst, sw)
		if err != nil {
			return 0, err
		}
		m.regWrite(inst, modrmReg(inst), v, width(inst))
		return next, nil

	case op == 0xBE || op == 0xBF: // movsx
		sw := 1
		if op == 0xBF {
			sw = 2
		}
		v, err := m.rmRead(inst, sw)
		if err != nil {
			return 0, err
		}
		shift := uint(64 - 8*sw)
		sx := uint64(int64(v<<shift) >> shift)
		w := width(inst)
		m.regWrite(inst, modrmReg(inst), sx&maskFor(w), w)
		return next, nil
	}
	return 0, fmt.Errorf("unimplemented two-byte opcode 0f %#02x", op)
}

// execALU runs an ALU-shaped instruction (aluForm) as dst = dst op
// src, through aluExec; write is false for cmp and test.
func (m *Machine) execALU(inst *x86.Inst, aluOp byte, write bool, dst, src operand) error {
	w := pairWidth(inst)
	a, err := m.read(inst, dst, w)
	if err != nil {
		return err
	}
	b, err := m.read(inst, src, w)
	if err != nil {
		return err
	}
	var f flagRec
	res := aluExec(&f, m.Flags, aluOp, a, b, maskFor(w), uint8(w), true)
	m.Flags = f.pack(m.Flags)
	switch {
	case !write:
		return nil
	case dst.mem:
		return m.rmWrite(inst, res, w)
	}
	m.regWrite(inst, dst.reg, res, w)
	return nil
}

// read returns an aluForm operand's low w bytes: a register, the
// immediate or the r/m operand.
func (m *Machine) read(inst *x86.Inst, o operand, w int) (uint64, error) {
	switch {
	case o.mem:
		return m.rmRead(inst, w)
	case o.imm:
		return uint64(inst.Imm()) & maskFor(w), nil
	}
	return m.regRead(inst, o.reg, w), nil
}

// imul is the two- and three-operand imul of a and b at width w, whose
// record becomes the flags.
func (m *Machine) imul(a, b uint64, w int) uint64 {
	var f flagRec
	res := byWidth(w, imul[uint8], imul[uint16], imul[uint32], imul[uint64])(&f, m.Flags, a, b, true)
	m.Flags = f.pack(m.Flags)
	return res
}

// incDec is inc, or dec when dec is set, of the w-byte v: an add or sub
// of 1 that keeps CF, whose record becomes the flags.
func (m *Machine) incDec(v uint64, w int, dec bool) uint64 {
	f := flagRec{kind: kInc, w: uint8(w), a: v, b: 1, aux: uint16(m.Flags & FlagCF)}
	if dec {
		f.kind = kDec
	}
	m.Flags = f.pack(m.Flags)
	return f.result()
}

func (m *Machine) execShift(inst *x86.Inst) error {
	op := inst.Opcode
	w := pairWidth(inst)
	var count uint64
	switch op {
	case 0xC0, 0xC1:
		count = uint64(inst.Imm())
	case 0xD0, 0xD1:
		count = 1
	case 0xD2, 0xD3:
		count = m.Regs[x86.RCX]
	}
	if w == 8 {
		count &= 63
	} else {
		count &= 31
	}
	v, err := m.rmRead(inst, w)
	if err != nil {
		return err
	}
	if count == 0 {
		return m.rmWrite(inst, v, w)
	}
	sub := (inst.ModRM >> 3) & 7
	if sub == 2 || sub == 3 {
		return fmt.Errorf("unimplemented shift /%d", sub)
	}
	var f flagRec
	res := shift(&f, m.Flags, sub, v, count, w, true)
	m.Flags = f.pack(m.Flags)
	return m.rmWrite(inst, res, w)
}

func (m *Machine) execGroup3(inst *x86.Inst) error {
	w := pairWidth(inst)
	reg := (inst.ModRM >> 3) & 7
	v, err := m.rmRead(inst, w)
	if err != nil {
		return err
	}
	var f flagRec
	switch reg {
	case 0, 1: // test r/m, imm
		f.logic(uint8(w), v&uint64(inst.Imm())&maskFor(w))
		m.Flags = f.pack(m.Flags)
		return nil
	case 2: // not
		return m.rmWrite(inst, ^v&maskFor(w), w)
	case 3: // neg
		f.arith(kSub, uint8(w), 0, v)
		m.Flags = f.pack(m.Flags)
		return m.rmWrite(inst, f.result(), w)
	case 4: // mul
		hi, lo := bits.Mul64(m.regRead(inst, x86.RAX, w), v)
		if w != 8 { // the product fits in lo
			hi, lo = lo>>(8*uint(w)), lo&maskFor(w)
		}
		m.writeProduct(inst, lo, hi, w)
		var c uint64
		if hi != 0 {
			c = 1
		}
		f.setCO(m.Flags, c, c)
		m.Flags = f.pack(m.Flags)
		return nil
	case 5: // imul (one-operand)
		sw := uint(64 - 8*w)
		sa := int64(m.regRead(inst, x86.RAX, w)<<sw) >> sw
		sb := int64(v<<sw) >> sw
		prod := sa * sb
		lo, hi := uint64(prod)&maskFor(w), uint64(prod>>(8*uint(w)))&maskFor(w)
		if w == 8 { // the int64 product wraps: take the 128-bit one
			hi, lo = smul128(uint64(sa), uint64(sb))
		}
		m.writeProduct(inst, lo, hi, w)
		var over uint64
		if hi != uint64(int64(lo<<sw)>>63)&maskFor(w) { // not lo's sign, extended
			over = 1
		}
		f.setCO(m.Flags, over, over)
		m.Flags = f.pack(m.Flags)
		return nil
	default: // 6, 7: div, idiv of the dividend in ax or rdx:rax
		hi, lo := m.regRead(inst, x86.RDX, w), m.regRead(inst, x86.RAX, w)
		if w == 1 {
			hi = m.Regs[x86.RAX] >> 8 & 0xFF
		}
		q, r, err := divide(hi, lo, v, w, reg == 7)
		if err != nil {
			return err
		}
		m.writeProduct(inst, q, r, w)
		return nil
	}
}

// divide divides the 2w-byte dividend hi:lo by the w-byte v, unsigned
// or, when signed is set, signed, truncating toward zero: the quotient
// and the remainder, or the divide error of a zero divisor or of a
// quotient that does not fit in w bytes.
func divide(hi, lo, v uint64, w int, signed bool) (q, r uint64, err error) {
	if v == 0 {
		return 0, 0, fmt.Errorf("divide by zero")
	}
	bitsW := uint(8 * w)
	n1, n0 := hi, lo // the dividend, 128 bits wide
	if w < 8 {
		n1, n0 = 0, hi<<bitsW|lo
	}
	var negN, negD bool // divide the magnitudes, then fix the signs
	if signed {
		if w < 8 {
			n0 = uint64(int64(n0<<(64-2*bitsW)) >> (64 - 2*bitsW))
			n1 = uint64(int64(n0) >> 63)
			v = uint64(int64(v<<(64-bitsW)) >> (64 - bitsW))
		}
		if negN = int64(n1) < 0; negN {
			var borrow uint64
			n0, borrow = bits.Sub64(0, n0, 0)
			n1, _ = bits.Sub64(0, n1, borrow)
		}
		if negD = int64(v) < 0; negD {
			v = -v
		}
	}
	limit := maskFor(w) // the largest quotient magnitude that fits
	if signed {
		limit >>= 1
		if negN != negD {
			limit++
		}
	}
	if n1 >= v {
		return 0, 0, fmt.Errorf("divide overflow")
	}
	if q, r = bits.Div64(n1, n0, v); q > limit {
		return 0, 0, fmt.Errorf("divide overflow")
	}
	if negN != negD {
		q = -q
	}
	if negN {
		r = -r
	}
	return q & maskFor(w), r & maskFor(w), nil
}

// writeProduct stores the result of a one-operand mul, imul, div or
// idiv, lo and hi (a quotient and its remainder): in ax for a byte
// operand, else in rdx:rax.
func (m *Machine) writeProduct(inst *x86.Inst, lo, hi uint64, w int) {
	if w == 1 {
		m.regWrite(inst, x86.RAX, hi<<8|lo, 2)
		return
	}
	m.regWrite(inst, x86.RAX, lo, w)
	m.regWrite(inst, x86.RDX, hi, w)
}

func (m *Machine) execGroup5(inst *x86.Inst, next uint64) (uint64, error) {
	reg := (inst.ModRM >> 3) & 7
	if reg != 2 && reg != 4 && reg != 6 {
		return 0, fmt.Errorf("unimplemented group-5 /%d", reg)
	}
	v, err := m.rmRead(inst, 8)
	if err != nil {
		return 0, err
	}
	switch reg {
	case 2: // call r/m
		err := m.push(next)
		return m.branch(next, v), err
	case 4: // jmp r/m
		return m.branch(next, v), nil
	}
	return next, m.push(v) // push r/m
}
