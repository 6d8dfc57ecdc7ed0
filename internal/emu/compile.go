package emu

import (
	"math/bits"

	"e9patch/internal/x86"
)

// Block compiler: decode (shared seam) → flag-liveness analysis →
// micro-op emission with constant effective-address folding. Exactly
// one micro-op is emitted per instruction, so micro-op index i
// executes insts[i]; a trailing epilogue op is added when the block
// can fall off its end (size cap or a decode failure ahead).
//
// The lift set is the measured hot set: the opcodes the emu-kernels
// kernels (original and rewritten) and the Figure 4/5 runs execute.
// Every other instruction is one interpreter-fallback micro-op
// (emitFallback), which flagEffects marks unsafe.

// Flag-liveness bit positions (one per arithmetic flag), used only by
// the compile-time analysis — distinct from the RFLAGS bit layout.
const (
	fCF = 1 << iota
	fPF
	fAF
	fZF
	fSF
	fOF
)
const fAll = fCF | fPF | fAF | fZF | fSF | fOF

// condFlags returns the liveness mask of flags a condition code reads.
func condFlags(cc x86.Cond) uint8 {
	switch cc &^ 1 {
	case x86.CondO:
		return fOF
	case x86.CondB:
		return fCF
	case x86.CondE:
		return fZF
	case x86.CondBE:
		return fCF | fZF
	case x86.CondS:
		return fSF
	case x86.CondP:
		return fPF
	case x86.CondL:
		return fSF | fOF
	case x86.CondLE:
		return fZF | fSF | fOF
	}
	return fAll
}

// staticShiftZero reports whether a shift with a compile-time count
// (C0/C1 imm, D0/D1 one) has an effective count of zero, in which
// case x86 leaves all flags untouched.
func staticShiftZero(inst *x86.Inst) bool {
	op := inst.Opcode
	if op == 0xD0 || op == 0xD1 {
		return false
	}
	count := uint64(inst.Imm())
	if op == 0xC1 && width(inst) == 8 {
		count &= 63
	} else {
		count &= 31
	}
	return count == 0
}

// liftedShift reports whether inst is a shift the engine lifts: a
// C0/C1/D0–D3 group member other than rcl/rcr, on a register.
func liftedShift(inst *x86.Inst, mem bool) bool {
	switch inst.Opcode {
	case 0xC0, 0xC1, 0xD0, 0xD1, 0xD2, 0xD3:
		sub := (inst.ModRM >> 3) & 7
		return !mem && sub != 2 && sub != 3
	}
	return false
}

// pairWidth is the operand width of an opcode from a byte/full pair
// (the ALU block, 80–8B, A8/A9, the shifts): the even member is the
// byte form.
func pairWidth(inst *x86.Inst) int {
	if inst.Opcode&1 == 0 {
		return 1
	}
	return width(inst)
}

// flagEffects describes one instruction for the liveness scan: which
// flags it reads, which it (re)defines, and whether execution can
// leave the block at it other than by running it to completion — a
// possible fault, an SMC flush raised by its own store, a signal
// dispatch, or an interpreter fallback. Flags must be architecturally
// reconstructible at every such exit, so an unsafe instruction makes
// all six flags live for everything before it. An instruction emit
// sends to the fallback takes an unsafe default row;
// TestFallbackImpliesUnsafe holds the two switches to each other.
func flagEffects(inst *x86.Inst) (read, written uint8, unsafe bool) {
	op := inst.Opcode
	sub := (inst.ModRM >> 3) & 7
	mem := inst.Attrs&x86.AttrModRM != 0 && !rmIsReg(inst)
	if inst.TwoByte {
		switch {
		case op >= 0x80 && op <= 0x8F: // jcc
			return condFlags(x86.Cond(op & 0xF)), 0, false
		case op == 0xAF: // imul r, r/m
			return fAF, fAll &^ fAF, mem
		}
		return fAll, 0, true // ud2 and anything unlifted: fallback
	}
	switch {
	case op <= 0x3D, op == 0x80, op == 0x81, op == 0x83: // ALU block, group 1
		aluOp := (op >> 3) & 7
		if op >= 0x80 {
			aluOp = sub
		}
		if aluOp == 2 || aluOp == 3 { // adc/sbb read CF
			return fCF, fAll, mem
		}
		return 0, fAll, mem
	case op >= 0x50 && op <= 0x5F, op == 0x68: // push/pop r, push imm32: the
		// store may raise an SMC flush, the load may fault
		return 0, 0, true
	case op == 0x69 || op == 0x6B: // imul r, r/m, imm
		return fAF, fAll &^ fAF, mem
	case op >= 0x70 && op <= 0x7F: // jcc rel8
		return condFlags(x86.Cond(op & 0xF)), 0, false
	case op == 0x84 || op == 0x85: // test r/m, r
		return 0, fAll, mem
	case op >= 0x88 && op <= 0x8B: // mov
		return 0, 0, mem
	case op == 0x8D: // lea: address is computed, never accessed
		return 0, 0, false
	case op == 0x9C: // pushfq reads everything and stores
		return fAll, 0, true
	case op == 0x9D: // popfq redefines everything, but pops first
		return 0, fAll, true
	case op == 0xA8 || op == 0xA9: // test rax, imm
		return 0, fAll, false
	case op >= 0xB8 && op <= 0xBF: // mov r, imm
		return 0, 0, false
	case liftedShift(inst, mem):
		switch {
		case op == 0xD2 || op == 0xD3: // by cl: the count may be 0 at
			// runtime, so prior flags stay potentially observable
			return fAF, 0, false
		case staticShiftZero(inst):
			return 0, 0, false
		}
		return fAF, fAll &^ fAF, false
	case op == 0xC2 || op == 0xC3 || op == 0xE8: // ret pops, call pushes
		return 0, 0, true
	case op == 0xE9 || op == 0xEB: // jmp
		return 0, 0, false
	case op == 0xF7 && sub == 2: // not: no flags
		return 0, 0, mem
	case op == 0xFF && sub == 4: // jmp r/m: a memory target may fault on load
		return 0, 0, mem
	}
	return fAll, 0, true // call/push r/m (stores) and anything unlifted: fallback
}

// comp is the per-block compile context.
type comp struct {
	e     *irEngine
	b     *block
	elide []bool // flag computation provably dead for insts[i]

	// Constant-register tracking for EA folding: known is a bitmask
	// over the 16 GPRs; kval holds full 64-bit values.
	known uint16
	kval  [16]uint64
}

// analyzeFlags runs the backward flag-liveness scan. An instruction's
// flag computation is elided only when every flag it defines is
// overwritten before any consumer, block exit, or unsafe instruction
// — and the instruction itself cannot exit the block mid-way (its own
// store could abort the block after the flags were due).
func (c *comp) analyzeFlags() {
	insts := c.b.insts
	c.elide = make([]bool, len(insts))
	live := uint8(fAll) // block end: a successor may read anything
	for i := len(insts) - 1; i >= 0; i-- {
		read, written, unsafe := flagEffects(&insts[i])
		if written != 0 && live&written == 0 && !unsafe {
			c.elide[i] = true
		}
		live = live&^written | read
		if unsafe {
			live = fAll
		}
	}
}

// Constant-register tracking helpers.

func (c *comp) kill(r x86.Reg)         { c.known &^= 1 << r }
func (c *comp) killAll()               { c.known = 0 }
func (c *comp) isKnown(r x86.Reg) bool { return c.known&(1<<r) != 0 }

// set records a register write with x86 merge semantics applied to
// the tracked constant.
func (c *comp) set(r x86.Reg, v uint64, w int) {
	switch {
	case w == 8:
		c.kval[r] = v
		c.known |= 1 << r
	case w == 4:
		c.kval[r] = v & 0xFFFFFFFF
		c.known |= 1 << r
	default: // 8/16-bit writes merge: only known if the rest is known
		if c.isKnown(r) {
			mask := maskFor(w)
			c.kval[r] = c.kval[r]&^mask | v&mask
		}
	}
}

// eaFor builds the effective-address computation for a memory
// operand, folding constant components resolved at lift time.
func (c *comp) eaFor(inst *x86.Inst) func(*Machine) uint64 {
	if inst.RIPRel {
		k := inst.Addr + uint64(inst.Len) + uint64(inst.Disp())
		c.e.Stats.FoldedEAs++
		return func(*Machine) uint64 { return k }
	}
	base, idx := inst.MemBase, inst.MemIndex
	scale := uint64(inst.MemScale)
	disp := uint64(inst.Disp())
	haveBase := base != x86.NoReg && base != x86.RIP
	haveIdx := idx != x86.NoReg
	baseKnown := !haveBase || c.isKnown(base)
	idxKnown := !haveIdx || c.isKnown(idx)
	switch {
	case baseKnown && idxKnown:
		k := disp
		if haveBase {
			k += c.kval[base]
		}
		if haveIdx {
			k += c.kval[idx] * scale
		}
		if haveBase || haveIdx {
			c.e.Stats.FoldedEAs++
		}
		return func(*Machine) uint64 { return k }
	case haveBase && haveIdx && baseKnown:
		k := c.kval[base] + disp
		return func(m *Machine) uint64 { return k + m.Regs[idx]*scale }
	case haveBase && haveIdx && idxKnown:
		k := c.kval[idx]*scale + disp
		return func(m *Machine) uint64 { return m.Regs[base] + k }
	case haveBase && haveIdx:
		return func(m *Machine) uint64 { return m.Regs[base] + m.Regs[idx]*scale + disp }
	case haveBase:
		return func(m *Machine) uint64 { return m.Regs[base] + disp }
	default:
		return func(m *Machine) uint64 { return m.Regs[idx]*scale + disp }
	}
}

// aluExec performs classic ALU op 0-7 (add/or/adc/sbb/and/sub/xor/cmp)
// on pre-masked operands, recording the deferred flag producer unless
// the liveness pass elided it, and returns the masked result (0 for
// cmp, which stores nothing).
func aluExec(s *state, op byte, a, b uint64, mask uint64, w uint8, rec bool) uint64 {
	switch op {
	case 0: // add
		if rec {
			s.fl = flagRec{kind: kAdd, w: w, a: a, b: b}
		}
		return (a + b) & mask
	case 1: // or
		res := a | b
		if rec {
			s.fl = flagRec{kind: kLogic, w: w, res: res}
		}
		return res
	case 2: // adc
		cin := s.lazyCF()
		if rec {
			s.fl = flagRec{kind: kAdd, w: w, a: a, b: b, cin: cin}
		}
		return (a + b + cin) & mask
	case 3: // sbb
		cin := s.lazyCF()
		if rec {
			s.fl = flagRec{kind: kSub, w: w, a: a, b: b, cin: cin}
		}
		return (a - b - cin) & mask
	case 4: // and
		res := a & b
		if rec {
			s.fl = flagRec{kind: kLogic, w: w, res: res}
		}
		return res
	case 5: // sub
		if rec {
			s.fl = flagRec{kind: kSub, w: w, a: a, b: b}
		}
		return (a - b) & mask
	case 6: // xor
		res := a ^ b
		if rec {
			s.fl = flagRec{kind: kLogic, w: w, res: res}
		}
		return res
	default: // cmp
		if rec {
			s.fl = flagRec{kind: kSub, w: w, a: a, b: b}
		}
		return 0
	}
}

// shiftCalc is the result and CF of shift group member sub (rol, ror,
// shl/sal, shr, sar: every one but rcl/rcr) by count >= 1 on a
// pre-masked w-byte value. Machine.execShift and the lifted shifts
// both compute through it.
func shiftCalc(sub byte, v, count uint64, w int) (res, cf uint64) {
	bitsW := uint(8 * w)
	switch sub {
	case 4, 6: // shl/sal
		res = v << count
		cf = (v >> (bitsW - uint(count))) & 1
	case 5: // shr
		res = v >> count
		cf = (v >> (uint(count) - 1)) & 1
	case 7: // sar
		shift := uint(64 - bitsW)
		sv := int64(v<<shift) >> shift
		res = uint64(sv >> count)
		cf = uint64(sv>>(count-1)) & 1
	case 0: // rol
		res = bits.RotateLeft64(v<<(64-bitsW), int(count)) >> (64 - bitsW)
		cf = res & 1
	default: // 1: ror
		res = bits.RotateLeft64(v<<(64-bitsW), -int(count)) >> (64 - bitsW)
		cf = (res >> (bitsW - 1)) & 1
	}
	return res & maskFor(w), cf
}

// compile lifts the block at pc into threaded code and caches it.
func (e *irEngine) compile(m *Machine, pc uint64) (*block, error) {
	insts, end, err := decodeBlock(m, pc)
	if err != nil {
		return nil, err
	}
	b := &block{start: pc, end: end, insts: insts}
	b.succAddr[0] = end
	if last := &insts[len(insts)-1]; last.RelSize != 0 {
		b.succAddr[1] = last.Target()
	}

	c := &comp{e: e, b: b}
	c.analyzeFlags()
	b.ops = make([]uop, 0, len(insts)+1)
	for i := range insts {
		b.ops = append(b.ops, c.emit(i))
	}
	if insts[len(insts)-1].Attrs&termAttrs == 0 {
		// The block falls off its end (size cap or decode failure
		// ahead): an epilogue op materializes the fallthrough RIP.
		b.ops = append(b.ops, func(s *state) int {
			s.m.RIP = end
			return done
		})
	}

	e.blocks[pc] = b
	e.trk.track(pc, end)
	e.Stats.Translations++
	return b, nil
}

// emitFallback produces the interpreter-fallback micro-op: it
// materializes the flags and defers to Machine.execDecodedQuiet, so
// every instruction outside the lift set (int3, hlt, ud2, div, and
// whatever no workload runs) keeps exact interpreter behaviour.
func (c *comp) emitFallback(i int) uop {
	c.killAll()
	c.e.Stats.Fallbacks++
	inst := &c.b.insts[i]
	next := i + 1
	nextAddr := inst.Addr + uint64(inst.Len)
	return func(s *state) int {
		s.materialize()
		m := s.m
		if err := m.execDecodedQuiet(inst); err != nil {
			m.RIP = inst.Addr
			s.err = err
			return done
		}
		if m.Halted() || s.trk.flushed || m.RIP != nextAddr {
			return done
		}
		return next
	}
}

// operand is an emitALU operand as the lift resolved it: a register,
// the instruction's immediate, or its memory operand.
type operand struct {
	reg      x86.Reg
	imm, mem bool
}

// emit lifts insts[i] into exactly one micro-op, updating the
// constant-register tracking as a side effect.
func (c *comp) emit(i int) uop {
	inst := &c.b.insts[i]
	op := inst.Opcode
	sub := (inst.ModRM >> 3) & 7
	next := i + 1
	nextAddr := inst.Addr + uint64(inst.Len)
	elide := c.elide[i]
	rec := !elide
	if elide {
		c.e.Stats.ElidedFlags++
	}
	mem := inst.Attrs&x86.AttrModRM != 0 && !rmIsReg(inst)
	rm := operand{reg: modrmRM(inst), mem: mem}
	reg := operand{reg: modrmReg(inst)}
	rax, imm := operand{reg: x86.RAX}, operand{imm: true}

	if inst.TwoByte {
		switch {
		case op >= 0x80 && op <= 0x8F: // jcc rel32
			return c.emitJcc(inst, x86.Cond(op&0xF), nextAddr)
		case op == 0xAF: // imul r, r/m
			return c.emitImul(i, inst, next, reg.reg, 0, false, rec, mem)
		}
		return c.emitFallback(i) // ud2 and anything unlifted
	}

	switch {
	case op <= 0x3D: // classic ALU block
		aluOp := (op >> 3) & 7
		switch op & 7 {
		case 0, 1: // op r/m, r
			return c.emitALU(i, aluOp, aluOp != 7, rm, reg)
		case 2, 3: // op r, r/m
			return c.emitALU(i, aluOp, aluOp != 7, reg, rm)
		default: // 4, 5: op al/eax/rax, imm
			return c.emitALU(i, aluOp, aluOp != 7, rax, imm)
		}

	case op == 0x80 || op == 0x81 || op == 0x83: // group 1: alu r/m, imm
		return c.emitALU(i, sub, sub != 7, rm, imm)

	case op == 0x84 || op == 0x85: // test r/m, r: and, no write
		return c.emitALU(i, 4, false, rm, reg)

	case op == 0xA8 || op == 0xA9: // test al/eax, imm
		return c.emitALU(i, 4, false, rax, imm)

	case op >= 0x50 && op <= 0x57, op == 0x68: // push r, push imm32 (an
		// epilogue's copy of a call pushes the return address)
		r, imm := x86.Reg(op&7|(inst.Rex&1)<<3), uint64(inst.Imm())
		c.kill(x86.RSP)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			if op == 0x68 {
				s.push(imm)
			} else {
				s.push(m.Regs[r])
			}
			if s.trk.flushed {
				m.RIP = nextAddr
				return done
			}
			return next
		}

	case op >= 0x58 && op <= 0x5F: // pop r
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		c.kill(x86.RSP)
		c.kill(r)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			v, err := s.pop()
			if err != nil {
				return s.fault(inst, err)
			}
			m.Regs[r] = v
			return next
		}

	case op == 0x69 || op == 0x6B: // imul r, r/m, imm
		return c.emitImul(i, inst, next, reg.reg, uint64(inst.Imm()), true, rec, mem)

	case op >= 0x70 && op <= 0x7F: // jcc rel8
		return c.emitJcc(inst, x86.Cond(op&0xF), nextAddr)

	case op >= 0x88 && op <= 0x8B: // mov r/m, r (88/89); mov r, r/m (8A/8B)
		w := pairWidth(inst)
		mask := maskFor(w)
		dst, src := rm.reg, reg.reg
		if op >= 0x8A {
			dst, src = src, dst
		}
		if !mem {
			if c.isKnown(src) {
				c.set(dst, c.kval[src], w)
			} else {
				c.kill(dst)
			}
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				m.regWrite(dst, m.Regs[src]&mask, w)
				return next
			}
		}
		if op < 0x8A {
			ea := c.eaFor(inst)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
				s.store(ea(m), m.Regs[src]&mask, w)
				if s.trk.flushed {
					m.RIP = nextAddr
					return done
				}
				return next
			}
		}
		c.kill(dst)
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			v, err := s.load(ea(m), w)
			if err != nil {
				return s.fault(inst, err)
			}
			m.regWrite(dst, v, w)
			return next
		}

	case op == 0x8D: // lea
		w := width(inst)
		dst := reg.reg
		ea := c.eaFor(inst) // consult known BEFORE killing dst
		if inst.RIPRel {
			c.set(dst, inst.Addr+uint64(inst.Len)+uint64(inst.Disp()), w)
		} else {
			hasBase := inst.MemBase != x86.NoReg && inst.MemBase != x86.RIP
			hasIdx := inst.MemIndex != x86.NoReg
			if (!hasBase || c.isKnown(inst.MemBase)) && (!hasIdx || c.isKnown(inst.MemIndex)) {
				k := uint64(inst.Disp())
				if hasBase {
					k += c.kval[inst.MemBase]
				}
				if hasIdx {
					k += c.kval[inst.MemIndex] * uint64(inst.MemScale)
				}
				c.set(dst, k, w)
			} else {
				c.kill(dst)
			}
		}
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			m.regWrite(dst, ea(m), w)
			return next
		}

	case op == 0x9C: // pushfq
		c.kill(x86.RSP)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			s.materialize()
			s.push(m.Flags)
			if s.trk.flushed {
				m.RIP = nextAddr
				return done
			}
			return next
		}

	case op == 0x9D: // popfq
		c.kill(x86.RSP)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			v, err := s.pop()
			if err != nil {
				return s.fault(inst, err)
			}
			m.Flags = v | flagsAlways
			s.fl.kind = kEager
			return next
		}

	case op >= 0xB8 && op <= 0xBF: // mov r, imm
		w := width(inst)
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		v := uint64(inst.Imm())
		if w != 8 {
			v &= maskFor(w)
		}
		c.set(r, v, w)
		if w == 8 {
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				m.Regs[r] = v
				return next
			}
		}
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			m.regWrite(r, v, w)
			return next
		}

	case liftedShift(inst, mem): // shift r, count
		w := pairWidth(inst)
		mask := maskFor(w)
		w8 := uint8(w)
		cmask := uint64(31)
		if w == 8 {
			cmask = 63
		}
		r := rm.reg
		c.kill(r)
		byCL := op == 0xD2 || op == 0xD3
		var count uint64
		switch op {
		case 0xC0, 0xC1:
			count = uint64(inst.Imm()) & cmask
		case 0xD0, 0xD1:
			count = 1
		}
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			n := count
			if byCL {
				n = m.Regs[x86.RCX] & cmask
			}
			v := m.Regs[r] & mask
			if n == 0 { // flags untouched, value rewritten
				m.regWrite(r, v, w)
				return next
			}
			res, cf := shiftCalc(sub, v, n, w)
			if rec {
				prevAF := s.lazyAF()
				s.fl = flagRec{kind: kShift, w: w8, res: res, aux: uint8(cf) | uint8(prevAF)<<1}
			}
			m.regWrite(r, res, w)
			return next
		}

	case op == 0xC2 || op == 0xC3: // ret [imm16]
		var adj uint64
		if op == 0xC2 {
			adj = uint64(inst.Imm()) & 0xFFFF
		}
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			ret, err := s.pop()
			if err != nil {
				return s.fault(inst, err)
			}
			m.Regs[x86.RSP] += adj
			m.Counters.Cycles += m.Cost.CallRet
			m.RIP = m.branch(nextAddr, ret)
			return done
		}

	case op == 0xE8: // call rel32
		target := inst.Target()
		c.kill(x86.RSP)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			s.push(nextAddr)
			m.Counters.Cycles += m.Cost.CallRet
			m.RIP = m.branch(nextAddr, target)
			return done
		}

	case op == 0xE9 || op == 0xEB: // jmp rel
		target := inst.Target()
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			m.RIP = m.branch(nextAddr, target)
			return done
		}

	case op == 0xF7 && sub == 2: // not r/m
		w := width(inst)
		mask := maskFor(w)
		if !mem {
			r := rm.reg
			c.kill(r)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				m.regWrite(r, ^m.Regs[r]&mask, w)
				return next
			}
		}
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			addr := ea(m)
			v, err := s.load(addr, w)
			if err != nil {
				return s.fault(inst, err)
			}
			m.Counters.Cycles += m.Cost.Mem
			s.store(addr, ^v&mask, w)
			if s.trk.flushed {
				m.RIP = nextAddr
				return done
			}
			return next
		}

	case op == 0xFF && (sub == 2 || sub == 4 || sub == 6): // group 5: call/jmp/push r/m
		var ea func(*Machine) uint64
		if mem {
			ea = c.eaFor(inst)
		}
		if sub != 4 {
			c.kill(x86.RSP)
		}
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			var t uint64
			if ea != nil {
				m.Counters.Cycles += m.Cost.Mem
				var err error
				t, err = s.load(ea(m), 8)
				if err != nil {
					return s.fault(inst, err)
				}
			} else {
				t = m.Regs[rm.reg]
			}
			switch sub {
			case 2: // call
				s.push(nextAddr)
				m.Counters.Cycles += m.Cost.CallRet
				m.RIP = m.branch(nextAddr, t)
				return done
			case 4: // jmp
				m.RIP = m.branch(nextAddr, t)
				return done
			default: // 6: push
				s.push(t)
				if s.trk.flushed {
					m.RIP = nextAddr
					return done
				}
				return next
			}
		}
	}

	return c.emitFallback(i)
}

// emitALU lifts every ALU-shaped instruction — the 00–3D block, group
// 1 and test, which is aluOp 4 (and) with no write — as dst = dst op
// src through aluExec, one closure per operand shape: destination
// {reg, mem} × source {reg, imm, mem}. write is false for cmp and test.
func (c *comp) emitALU(i int, aluOp byte, write bool, dst, src operand) uop {
	inst := &c.b.insts[i]
	next := i + 1
	nextAddr := inst.Addr + uint64(inst.Len)
	rec := !c.elide[i]
	w := pairWidth(inst)
	mask := maskFor(w)
	w8 := uint8(w)
	d, r := dst.reg, src.reg
	b := uint64(inst.Imm()) & mask
	if write && !dst.mem {
		if aluOp == 6 && !src.imm && !src.mem && r == d { // xor r, r: constant zero
			c.set(d, 0, w)
		} else {
			c.kill(d)
		}
	}

	switch {
	case dst.mem && src.imm:
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			addr := ea(m)
			a, err := s.load(addr, w)
			if err != nil {
				return s.fault(inst, err)
			}
			res := aluExec(s, aluOp, a, b, mask, w8, rec)
			if write {
				m.Counters.Cycles += m.Cost.Mem
				s.store(addr, res, w)
				if s.trk.flushed {
					m.RIP = nextAddr
					return done
				}
			}
			return next
		}
	case dst.mem:
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			addr := ea(m)
			a, err := s.load(addr, w)
			if err != nil {
				return s.fault(inst, err)
			}
			res := aluExec(s, aluOp, a, m.Regs[r]&mask, mask, w8, rec)
			if write {
				m.Counters.Cycles += m.Cost.Mem
				s.store(addr, res, w)
				if s.trk.flushed {
					m.RIP = nextAddr
					return done
				}
			}
			return next
		}
	case src.mem:
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			v, err := s.load(ea(m), w)
			if err != nil {
				return s.fault(inst, err)
			}
			res := aluExec(s, aluOp, m.Regs[d]&mask, v, mask, w8, rec)
			if write {
				m.regWrite(d, res, w)
			}
			return next
		}
	case src.imm:
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			res := aluExec(s, aluOp, m.Regs[d]&mask, b, mask, w8, rec)
			if write {
				m.regWrite(d, res, w)
			}
			return next
		}
	default:
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			res := aluExec(s, aluOp, m.Regs[d]&mask, m.Regs[r]&mask, mask, w8, rec)
			if write {
				m.regWrite(d, res, w)
			}
			return next
		}
	}
}

// emitJcc lifts a conditional branch: the condition is answered
// straight from the deferred flag record.
func (c *comp) emitJcc(inst *x86.Inst, cc x86.Cond, nextAddr uint64) uop {
	target := inst.Target()
	return func(s *state) int {
		m := s.m
		m.Counters.Instructions++
		m.Counters.Cycles += m.Cost.ALU
		if s.lazyCond(cc) {
			m.RIP = m.branch(nextAddr, target)
		} else {
			m.RIP = nextAddr
		}
		return done
	}
}

// emitImul lifts the two-operand (and immediate) imul forms.
func (c *comp) emitImul(i int, inst *x86.Inst, next int, dst x86.Reg, imm uint64, hasImm, rec, mem bool) uop {
	w := width(inst)
	mask := maskFor(w)
	w8 := uint8(w)
	sw := uint(64 - 8*w)
	c.kill(dst)
	mul := func(s *state, a, b uint64) uint64 {
		sa := int64(a<<sw) >> sw
		sb := int64(b<<sw) >> sw
		prod := sa * sb
		res := uint64(prod) & mask
		if rec {
			over := int64(res<<sw)>>sw != prod
			prevAF := s.lazyAF()
			var aux uint8
			if over {
				aux = 1
			}
			s.fl = flagRec{kind: kImul, w: w8, res: res, aux: aux | uint8(prevAF)<<1}
		}
		return res
	}
	if !mem {
		src := modrmRM(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mul
			a := m.Regs[src] & mask
			b := imm
			if !hasImm {
				b = a
				a = m.Regs[dst] & mask
			}
			m.regWrite(dst, mul(s, a, b), w)
			return next
		}
	}
	ea := c.eaFor(inst)
	return func(s *state) int {
		m := s.m
		m.Counters.Instructions++
		m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
		v, err := s.load(ea(m), w)
		if err != nil {
			return s.fault(inst, err)
		}
		m.Counters.Cycles += m.Cost.Mul
		a, b := v, imm
		if !hasImm {
			a, b = m.Regs[dst]&mask, v
		}
		m.regWrite(dst, mul(s, a, b), w)
		return next
	}
}
