package emu

import (
	"fmt"
	"math/bits"

	"e9patch/internal/x86"
)

// Step fetches, decodes and executes one instruction (or services a
// runtime-call / exit-sentinel address).
func (m *Machine) Step() error {
	if handled, err := m.stepSpecial(); handled || err != nil {
		return err
	}
	raw, ok := m.Mem.ReadBytes(m.RIP, 15)
	if !ok && !m.Mem.Mapped(m.RIP) {
		return fetchFault(m.RIP)
	}
	inst, err := x86.Decode(raw, m.RIP)
	if err != nil {
		return fmt.Errorf("emu: at %#x: %w", m.RIP, err)
	}
	return m.execDecoded(&inst)
}

// fetchFault is the error for fetching an instruction whose first byte
// lies on an unmapped page. Only that page counts: the 15-byte fetch
// window of an instruction near the end of a mapped page may cross
// into an unmapped one, and the bytes past the instruction are never
// executed.
func fetchFault(pc uint64) error { return fmt.Errorf("emu: fetch fault at %#x", pc) }

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
		// the calling code, run the binding, return.
		ret, err := m.pop()
		if err != nil {
			return true, err
		}
		m.Counters.RuntimeCalls++
		m.Counters.Cycles += m.Cost.Runtime
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

// execDecoded executes one already-decoded instruction: trace callback,
// counters, dispatch and the RIP update, exactly as the fetch-decode
// path of Step. The caller must guarantee inst.Addr == RIP; the ir
// engine satisfies this because straight-line execution leaves RIP at
// the next cached Addr.
func (m *Machine) execDecoded(inst *x86.Inst) error {
	if m.Trace != nil {
		m.Trace(inst)
	}
	return m.execDecodedQuiet(inst)
}

// execDecodedQuiet is execDecoded without the Trace callback: counters,
// dispatch, error wrapping and the RIP update. The ir engine, which
// issues the Trace call itself (or has already established it is nil),
// uses it as the single-instruction fallback path so the callback never
// fires twice for one retired instruction.
func (m *Machine) execDecodedQuiet(inst *x86.Inst) error {
	m.Counters.Instructions++
	m.Counters.Cycles += m.Cost.ALU
	next := inst.Addr + uint64(inst.Len)
	newRIP, err := m.exec(inst, next)
	if err != nil {
		return fmt.Errorf("emu: at %#x (% x): %w", inst.Addr, inst.Bytes, err)
	}
	m.RIP = newRIP
	return nil
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

// regRead returns the low w bytes of a register.
func (m *Machine) regRead(r x86.Reg, w int) uint64 { return m.Regs[r] & maskFor(w) }

// regWrite stores v into a register with x86-64 merge semantics:
// 32-bit writes zero-extend; 8/16-bit writes merge.
func (m *Machine) regWrite(r x86.Reg, v uint64, w int) {
	switch w {
	case 8:
		m.Regs[r] = v
	case 4:
		m.Regs[r] = v & 0xFFFFFFFF
	default:
		mask := maskFor(w)
		m.Regs[r] = m.Regs[r]&^mask | v&mask
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
		return m.regRead(modrmRM(inst), w), nil
	}
	m.Counters.Cycles += m.Cost.Mem
	return m.Mem.read(m.ea(inst), w)
}

// rmWrite writes the r/m operand.
func (m *Machine) rmWrite(inst *x86.Inst, v uint64, w int) error {
	if rmIsReg(inst) {
		m.regWrite(modrmRM(inst), v, w)
		return nil
	}
	m.Counters.Cycles += m.Cost.Mem
	return m.Mem.write(m.ea(inst), v, w)
}

func (m *Machine) push(v uint64) error {
	sp := m.Regs[x86.RSP] - 8
	m.Regs[x86.RSP] = sp
	m.Counters.Cycles += m.Cost.Mem
	return m.Mem.write(sp, v, 8)
}

func (m *Machine) pop() (uint64, error) {
	sp := m.Regs[x86.RSP]
	v, err := m.Mem.read(sp, 8)
	if err != nil {
		return 0, err
	}
	m.Regs[x86.RSP] = sp + 8
	m.Counters.Cycles += m.Cost.Mem
	return v, nil
}

// branch accounts for a taken control transfer and returns the target.
func (m *Machine) branch(from, target uint64) uint64 {
	m.Counters.TakenBranches++
	m.Counters.Cycles += m.Cost.BranchTaken
	dist := target - from
	if int64(dist) < 0 {
		dist = -dist
	}
	if dist > m.Cost.FarDistance {
		m.Counters.FarJumps++
		m.Counters.Cycles += m.Cost.FarJump
	}
	return target
}

// exec executes a decoded instruction; next is the fallthrough RIP.
func (m *Machine) exec(inst *x86.Inst, next uint64) (uint64, error) {
	op := inst.Opcode
	if inst.TwoByte {
		return m.execTwoByte(inst, next)
	}

	switch {
	// Classic ALU block: 0x00-0x3D (skipping invalid slots, which the
	// decoder rejects).
	case op <= 0x3D:
		return next, m.execALUBlock(inst)

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
		m.regWrite(modrmReg(inst), uint64(int64(int32(uint32(v)))), 8)
		return next, nil

	case op == 0x68 || op == 0x6A: // push imm
		return next, m.push(uint64(inst.Imm()))

	case op == 0x69 || op == 0x6B: // imul r, r/m, imm
		w := width(inst)
		a, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		m.Counters.Cycles += m.Cost.Mul
		res := m.imulFlags(a, uint64(inst.Imm()), w)
		m.regWrite(modrmReg(inst), res, w)
		return next, nil

	case op >= 0x70 && op <= 0x7F: // jcc rel8
		if m.cond(x86.Cond(op & 0xF)) {
			return m.branch(next, inst.Target()), nil
		}
		return next, nil

	case op == 0x80 || op == 0x81 || op == 0x83: // group 1
		w := width(inst)
		if op == 0x80 {
			w = 1
		}
		return next, m.execGroup1(inst, w)

	case op == 0x84 || op == 0x85: // test r/m, r
		w := width(inst)
		if op == 0x84 {
			w = 1
		}
		a, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		b := m.regRead(modrmReg(inst), w)
		m.setLogicFlags(a&b, w)
		return next, nil

	case op == 0x86 || op == 0x87: // xchg r/m, r
		w := width(inst)
		if op == 0x86 {
			w = 1
		}
		a, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		r := modrmReg(inst)
		b := m.regRead(r, w)
		if err := m.rmWrite(inst, b, w); err != nil {
			return 0, err
		}
		m.regWrite(r, a, w)
		return next, nil

	case op == 0x88 || op == 0x89: // mov r/m, r
		w := width(inst)
		if op == 0x88 {
			w = 1
		}
		return next, m.rmWrite(inst, m.regRead(modrmReg(inst), w), w)

	case op == 0x8A || op == 0x8B: // mov r, r/m
		w := width(inst)
		if op == 0x8A {
			w = 1
		}
		v, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		m.regWrite(modrmReg(inst), v, w)
		return next, nil

	case op == 0x8D: // lea
		m.regWrite(modrmReg(inst), m.ea(inst), width(inst))
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
		a := m.regRead(x86.RAX, w)
		m.regWrite(x86.RAX, m.regRead(r, w), w)
		m.regWrite(r, a, w)
		return next, nil

	case op == 0x98: // cdqe / cwde
		if inst.Rex&8 != 0 {
			m.Regs[x86.RAX] = uint64(int64(int32(uint32(m.Regs[x86.RAX]))))
		} else {
			m.regWrite(x86.RAX, uint64(uint32(int32(int16(uint16(m.Regs[x86.RAX]))))), 4)
		}
		return next, nil

	case op == 0x99: // cqo / cdq
		if inst.Rex&8 != 0 {
			m.Regs[x86.RDX] = uint64(int64(m.Regs[x86.RAX]) >> 63)
		} else {
			m.regWrite(x86.RDX, uint64(uint32(int32(uint32(m.Regs[x86.RAX]))>>31)), 4)
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

	case op == 0xA8 || op == 0xA9: // test al/eax, imm
		w := width(inst)
		if op == 0xA8 {
			w = 1
		}
		m.setLogicFlags(m.regRead(x86.RAX, w)&uint64(inst.Imm())&maskFor(w), w)
		return next, nil

	case op >= 0xB0 && op <= 0xB7: // mov r8, imm8
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		m.regWrite(r, uint64(inst.Imm()), 1)
		return next, nil

	case op >= 0xB8 && op <= 0xBF: // mov r, imm
		w := width(inst)
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		if w == 8 {
			// movabs carries a full 64-bit immediate.
			m.Regs[r] = uint64(inst.Imm())
		} else {
			m.regWrite(r, uint64(inst.Imm())&maskFor(w), w)
		}
		return next, nil

	case op == 0xC0 || op == 0xC1 || op == 0xD0 || op == 0xD1 || op == 0xD2 || op == 0xD3:
		return next, m.execShift(inst)

	case op == 0xC2: // ret imm16
		ret, err := m.pop()
		if err != nil {
			return 0, err
		}
		m.Regs[x86.RSP] += uint64(inst.Imm()) & 0xFFFF
		m.Counters.Cycles += m.Cost.CallRet
		return m.branch(next, ret), nil

	case op == 0xC3: // ret
		ret, err := m.pop()
		if err != nil {
			return 0, err
		}
		m.Counters.Cycles += m.Cost.CallRet
		return m.branch(next, ret), nil

	case op == 0xC6 || op == 0xC7: // mov r/m, imm
		w := width(inst)
		if op == 0xC6 {
			w = 1
		}
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
		if err := m.push(next); err != nil {
			return 0, err
		}
		m.Counters.Cycles += m.Cost.CallRet
		return m.branch(next, inst.Target()), nil

	case op == 0xE9 || op == 0xEB: // jmp
		return m.branch(next, inst.Target()), nil

	case op == 0xF4: // hlt
		m.halted = true
		m.ExitCode = m.Regs[x86.RAX]
		return next, nil

	case op == 0xF5: // cmc
		m.Flags ^= FlagCF
		return next, nil

	case op == 0xF8: // clc
		m.setFlag(FlagCF, false)
		return next, nil

	case op == 0xF9: // stc
		m.setFlag(FlagCF, true)
		return next, nil

	case op == 0xFC: // cld
		m.setFlag(FlagDF, false)
		return next, nil

	case op == 0xFD: // std
		m.setFlag(FlagDF, true)
		return next, nil

	case op == 0xF6 || op == 0xF7: // group 3
		return next, m.execGroup3(inst)

	case op == 0xFE: // group 4: inc/dec r/m8
		v, err := m.rmRead(inst, 1)
		if err != nil {
			return 0, err
		}
		var res uint64
		if (inst.ModRM>>3)&7 == 0 {
			res = m.incFlags(v, 1)
		} else {
			res = m.decFlags(v, 1)
		}
		return next, m.rmWrite(inst, res, 1)

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
			m.regWrite(r, v, w)
		} else if w == 4 {
			// 32-bit cmov zero-extends even when not taken.
			m.regWrite(r, m.regRead(r, 4), 4)
		}
		return next, nil

	case op >= 0x80 && op <= 0x8F: // jcc rel32
		if m.cond(x86.Cond(op & 0xF)) {
			return m.branch(next, inst.Target()), nil
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
		m.Counters.Cycles += m.Cost.Mul
		res := m.imulFlags(m.regRead(r, w), a, w)
		m.regWrite(r, res, w)
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
		m.regWrite(modrmReg(inst), v, width(inst))
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
		m.regWrite(modrmReg(inst), sx&maskFor(w), w)
		return next, nil
	}
	return 0, fmt.Errorf("unimplemented two-byte opcode 0f %#02x", op)
}

// execALUBlock handles opcodes 0x00-0x3D (add/or/adc/sbb/and/sub/xor/cmp).
func (m *Machine) execALUBlock(inst *x86.Inst) error {
	op := inst.Opcode
	aluOp := (op >> 3) & 7
	form := op & 7
	w := width(inst)
	if form == 0 || form == 2 || form == 4 {
		w = 1
	}

	var a, b uint64
	var err error
	var writeBack func(uint64) error
	switch form {
	case 0, 1: // op r/m, r
		a, err = m.rmRead(inst, w)
		b = m.regRead(modrmReg(inst), w)
		writeBack = func(v uint64) error { return m.rmWrite(inst, v, w) }
	case 2, 3: // op r, r/m
		b, err = m.rmRead(inst, w)
		a = m.regRead(modrmReg(inst), w)
		r := modrmReg(inst)
		writeBack = func(v uint64) error { m.regWrite(r, v, w); return nil }
	case 4, 5: // op al/eax, imm
		a = m.regRead(x86.RAX, w)
		b = uint64(inst.Imm()) & maskFor(w)
		writeBack = func(v uint64) error { m.regWrite(x86.RAX, v, w); return nil }
	}
	if err != nil {
		return err
	}
	res, write := m.aluApply(aluOp, a, b, w)
	if write {
		return writeBack(res)
	}
	return nil
}

// aluApply performs ALU op (0=add 1=or 2=adc 3=sbb 4=and 5=sub 6=xor
// 7=cmp) with flag updates; write reports whether the result is stored.
func (m *Machine) aluApply(op byte, a, b uint64, w int) (uint64, bool) {
	switch op {
	case 0:
		return m.addFlags(a, b, 0, w), true
	case 1:
		res := (a | b) & maskFor(w)
		m.setLogicFlags(res, w)
		return res, true
	case 2:
		return m.addFlags(a, b, m.flagBit(FlagCF), w), true
	case 3:
		return m.subFlags(a, b, m.flagBit(FlagCF), w), true
	case 4:
		res := a & b & maskFor(w)
		m.setLogicFlags(res, w)
		return res, true
	case 5:
		return m.subFlags(a, b, 0, w), true
	case 6:
		res := (a ^ b) & maskFor(w)
		m.setLogicFlags(res, w)
		return res, true
	default: // 7 = cmp
		m.subFlags(a, b, 0, w)
		return 0, false
	}
}

func (m *Machine) execGroup1(inst *x86.Inst, w int) error {
	a, err := m.rmRead(inst, w)
	if err != nil {
		return err
	}
	b := uint64(inst.Imm()) & maskFor(w)
	res, write := m.aluApply((inst.ModRM>>3)&7, a, b, w)
	if write {
		return m.rmWrite(inst, res, w)
	}
	return nil
}

func (m *Machine) execShift(inst *x86.Inst) error {
	op := inst.Opcode
	w := width(inst)
	if op == 0xC0 || op == 0xD0 || op == 0xD2 {
		w = 1
	}
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
	res, cf := shiftCalc(sub, v, count, w)
	m.setResultFlags(res, w)
	m.setFlag(FlagCF, cf != 0)
	m.setFlag(FlagOF, false)
	return m.rmWrite(inst, res, w)
}

func (m *Machine) execGroup3(inst *x86.Inst) error {
	w := width(inst)
	if inst.Opcode == 0xF6 {
		w = 1
	}
	reg := (inst.ModRM >> 3) & 7
	v, err := m.rmRead(inst, w)
	if err != nil {
		return err
	}
	switch reg {
	case 0, 1: // test r/m, imm
		m.setLogicFlags(v&uint64(inst.Imm())&maskFor(w), w)
		return nil
	case 2: // not
		return m.rmWrite(inst, ^v&maskFor(w), w)
	case 3: // neg
		res := m.subFlags(0, v, 0, w)
		m.setFlag(FlagCF, v != 0)
		return m.rmWrite(inst, res, w)
	case 4: // mul
		m.Counters.Cycles += m.Cost.Mul
		hi, lo := bits.Mul64(m.regRead(x86.RAX, w), v)
		if w != 8 {
			full := m.regRead(x86.RAX, w) * v
			lo = full & maskFor(w)
			hi = (full >> (8 * uint(w))) & maskFor(w)
		}
		m.regWrite(x86.RAX, lo, w)
		m.regWrite(x86.RDX, hi, w)
		m.setFlag(FlagCF, hi != 0)
		m.setFlag(FlagOF, hi != 0)
		return nil
	case 5: // imul (one-operand)
		m.Counters.Cycles += m.Cost.Mul
		sw := uint(64 - 8*w)
		sa := int64(m.regRead(x86.RAX, w)<<sw) >> sw
		sb := int64(v<<sw) >> sw
		prod := sa * sb
		m.regWrite(x86.RAX, uint64(prod)&maskFor(w), w)
		m.regWrite(x86.RDX, uint64(prod>>(8*uint(w)))&maskFor(w), w)
		over := prod != int64(int64(uint64(prod)&maskFor(w))<<sw)>>sw
		m.setFlag(FlagCF, over)
		m.setFlag(FlagOF, over)
		return nil
	case 6: // div
		m.Counters.Cycles += m.Cost.Mul
		if v == 0 {
			return fmt.Errorf("divide by zero")
		}
		if w == 8 {
			hi, lo := m.Regs[x86.RDX], m.Regs[x86.RAX]
			if hi >= v {
				return fmt.Errorf("divide overflow")
			}
			q, r := bits.Div64(hi, lo, v)
			m.Regs[x86.RAX], m.Regs[x86.RDX] = q, r
			return nil
		}
		num := m.regRead(x86.RDX, w)<<(8*uint(w)) | m.regRead(x86.RAX, w)
		m.regWrite(x86.RAX, num/v, w)
		m.regWrite(x86.RDX, num%v, w)
		return nil
	case 7: // idiv
		m.Counters.Cycles += m.Cost.Mul
		sw := uint(64 - 8*w)
		sv := int64(v<<sw) >> sw
		if sv == 0 {
			return fmt.Errorf("divide by zero")
		}
		var num int64
		if w == 8 {
			num = int64(m.Regs[x86.RAX]) // approximation: rdx ignored
		} else {
			num = int64((m.regRead(x86.RDX, w)<<(8*uint(w))|m.regRead(x86.RAX, w))<<(64-16*uint(w))) >> (64 - 16*uint(w))
		}
		m.regWrite(x86.RAX, uint64(num/sv)&maskFor(w), w)
		m.regWrite(x86.RDX, uint64(num%sv)&maskFor(w), w)
		return nil
	}
	return fmt.Errorf("unimplemented group-3 /%d", reg)
}

func (m *Machine) execGroup5(inst *x86.Inst, next uint64) (uint64, error) {
	reg := (inst.ModRM >> 3) & 7
	switch reg {
	case 0, 1: // inc/dec r/m
		w := width(inst)
		v, err := m.rmRead(inst, w)
		if err != nil {
			return 0, err
		}
		var res uint64
		if reg == 0 {
			res = m.incFlags(v, w)
		} else {
			res = m.decFlags(v, w)
		}
		return next, m.rmWrite(inst, res, w)
	case 2: // call r/m
		t, err := m.rmRead(inst, 8)
		if err != nil {
			return 0, err
		}
		if err := m.push(next); err != nil {
			return 0, err
		}
		m.Counters.Cycles += m.Cost.CallRet
		return m.branch(next, t), nil
	case 4: // jmp r/m
		t, err := m.rmRead(inst, 8)
		if err != nil {
			return 0, err
		}
		return m.branch(next, t), nil
	case 6: // push r/m
		v, err := m.rmRead(inst, 8)
		if err != nil {
			return 0, err
		}
		return next, m.push(v)
	}
	return 0, fmt.Errorf("unimplemented group-5 /%d", reg)
}
