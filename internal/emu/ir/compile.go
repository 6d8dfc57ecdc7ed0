package ir

import (
	"math/bits"

	"e9patch/internal/emu"
	"e9patch/internal/x86"
)

// Block compiler: decode (shared seam) → flag-liveness analysis →
// micro-op emission with constant effective-address folding. Exactly
// one micro-op is emitted per instruction, so micro-op index i
// executes insts[i]; a trailing epilogue op is added when the block
// can fall off its end (size cap or a decode failure ahead).

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
	if op == 0xC1 && emu.Width(inst) == 8 {
		count &= 63
	} else {
		count &= 31
	}
	return count == 0
}

// flagEffects describes one instruction for the liveness scan: which
// flags it reads, which it (re)defines, and whether execution can
// leave the block at it other than by running it to completion — a
// possible fault, an SMC flush raised by its own store, a signal
// dispatch, or an interpreter fallback. Flags must be architecturally
// reconstructible at every such exit, so an unsafe instruction makes
// all six flags live for everything before it.
func flagEffects(inst *x86.Inst) (read, written uint8, unsafe bool) {
	op := inst.Opcode
	mem := inst.Attrs&x86.AttrModRM != 0 && !emu.RMIsReg(inst)
	if inst.TwoByte {
		switch {
		case op >= 0x40 && op <= 0x4F: // cmov
			return condFlags(x86.Cond(op & 0xF)), 0, mem
		case op >= 0x80 && op <= 0x8F: // jcc
			return condFlags(x86.Cond(op & 0xF)), 0, false
		case op >= 0x90 && op <= 0x9F: // setcc
			return condFlags(x86.Cond(op & 0xF)), 0, mem
		case op == 0xAF: // imul r, r/m
			return fAF, fAll &^ fAF, mem
		case op == 0xB6 || op == 0xB7 || op == 0xBE || op == 0xBF: // movzx/movsx
			return 0, 0, mem
		case op == 0x1E || op == 0x1F || op == 0x0D || (op >= 0x18 && op <= 0x1D):
			return 0, 0, false // hint nops
		}
		return fAll, 0, true // ud2 and anything unlifted: fallback
	}
	switch {
	case op <= 0x3D: // classic ALU block
		aluOp := (op >> 3) & 7
		var r uint8
		if aluOp == 2 || aluOp == 3 { // adc/sbb read CF
			r = fCF
		}
		return r, fAll, mem
	case op >= 0x50 && op <= 0x57: // push r: store may raise SMC flush
		return 0, 0, true
	case op >= 0x58 && op <= 0x5F: // pop r: load may fault
		return 0, 0, true
	case op == 0x63: // movsxd
		return 0, 0, mem
	case op == 0x68 || op == 0x6A: // push imm
		return 0, 0, true
	case op == 0x69 || op == 0x6B: // imul r, r/m, imm
		return fAF, fAll &^ fAF, mem
	case op >= 0x70 && op <= 0x7F: // jcc rel8
		return condFlags(x86.Cond(op & 0xF)), 0, false
	case op == 0x80 || op == 0x81 || op == 0x83: // group 1
		sub := (inst.ModRM >> 3) & 7
		var r uint8
		if sub == 2 || sub == 3 {
			r = fCF
		}
		return r, fAll, mem
	case op == 0x84 || op == 0x85: // test r/m, r
		return 0, fAll, mem
	case op == 0x86 || op == 0x87: // xchg
		return 0, 0, mem
	case op >= 0x88 && op <= 0x8B: // mov
		return 0, 0, mem
	case op == 0x8D: // lea: address is computed, never accessed
		return 0, 0, false
	case op == 0x8F: // pop r/m
		return 0, 0, true
	case op == 0x90, op >= 0x91 && op <= 0x97, op == 0x98, op == 0x99:
		return 0, 0, false // nop, xchg rax, cdqe, cqo
	case op == 0x9C: // pushfq reads everything and stores
		return fAll, 0, true
	case op == 0x9D: // popfq redefines everything, but pops first
		return 0, fAll, true
	case op == 0xA8 || op == 0xA9: // test rax, imm
		return 0, fAll, false
	case op >= 0xB0 && op <= 0xBF: // mov r, imm
		return 0, 0, false
	case op == 0xC0 || op == 0xC1 || op == 0xD0 || op == 0xD1: // shift, static count
		if staticShiftZero(inst) {
			return 0, 0, mem
		}
		return fAF, fAll &^ fAF, mem
	case op == 0xD2 || op == 0xD3: // shift by cl: count may be 0 at
		// runtime, so prior flags stay potentially observable
		return fAF, 0, mem
	case op == 0xC2 || op == 0xC3: // ret pops
		return 0, 0, true
	case op == 0xC6 || op == 0xC7: // mov r/m, imm
		return 0, 0, mem
	case op == 0xC9: // leave pops
		return 0, 0, true
	case op == 0xCC: // int3: signal dispatch (or error)
		return fAll, 0, true
	case op == 0xE8: // call pushes
		return 0, 0, true
	case op == 0xE9 || op == 0xEB: // jmp
		return 0, 0, false
	case op == 0xF4: // hlt: fallback
		return fAll, 0, true
	case op == 0xF5 || op == 0xF8 || op == 0xF9: // cmc/clc/stc
		return fAll, fCF, false
	case op == 0xFC || op == 0xFD: // cld/std: DF only
		return 0, 0, false
	case op == 0xF6 || op == 0xF7: // group 3
		switch (inst.ModRM >> 3) & 7 {
		case 0, 1: // test r/m, imm
			return 0, fAll, mem
		case 2: // not: no flags
			return 0, 0, mem
		case 3: // neg
			return 0, fAll, mem
		}
		return fAll, 0, true // mul/imul/div/idiv: fallback (div may error)
	case op == 0xFE: // inc/dec r/m8
		return fCF, fAll &^ fCF, mem
	case op == 0xFF: // group 5
		switch (inst.ModRM >> 3) & 7 {
		case 0, 1: // inc/dec
			return fCF, fAll &^ fCF, mem
		case 4: // jmp r/m: a memory target may fault on load
			return 0, 0, mem
		}
		return 0, 0, true // call/push (stores), others fallback
	}
	return fAll, 0, true // unlifted: fallback
}

// comp is the per-block compile context.
type comp struct {
	e     *Engine
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
			mask := emu.MaskFor(w)
			c.kval[r] = c.kval[r]&^mask | v&mask
		}
	}
}

// eaFor builds the effective-address computation for a memory
// operand, folding constant components resolved at lift time.
func (c *comp) eaFor(inst *x86.Inst) func(*emu.Machine) uint64 {
	if inst.RIPRel {
		k := inst.Addr + uint64(inst.Len) + uint64(inst.Disp())
		c.e.Stats.FoldedEAs++
		return func(*emu.Machine) uint64 { return k }
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
		return func(*emu.Machine) uint64 { return k }
	case haveBase && haveIdx && baseKnown:
		k := c.kval[base] + disp
		return func(m *emu.Machine) uint64 { return k + m.Regs[idx]*scale }
	case haveBase && haveIdx && idxKnown:
		k := c.kval[idx]*scale + disp
		return func(m *emu.Machine) uint64 { return m.Regs[base] + k }
	case haveBase && haveIdx:
		return func(m *emu.Machine) uint64 { return m.Regs[base] + m.Regs[idx]*scale + disp }
	case haveBase:
		return func(m *emu.Machine) uint64 { return m.Regs[base] + disp }
	default:
		return func(m *emu.Machine) uint64 { return m.Regs[idx]*scale + disp }
	}
}

// wreg is Machine.regWrite, local so it inlines into micro-ops.
func wreg(m *emu.Machine, r x86.Reg, v uint64, w int) {
	switch w {
	case 8:
		m.Regs[r] = v
	case 4:
		m.Regs[r] = v & 0xFFFFFFFF
	default:
		mask := emu.MaskFor(w)
		m.Regs[r] = m.Regs[r]&^mask | v&mask
	}
}

// aluExec performs classic ALU op 0-7 (add/or/adc/sbb/and/sub/xor/cmp)
// on pre-masked operands, recording the deferred flag producer unless
// the liveness pass elided it. write reports whether the result is
// stored back.
func aluExec(s *state, op byte, a, b uint64, mask uint64, w uint8, rec bool) (uint64, bool) {
	switch op {
	case 0: // add
		res := (a + b) & mask
		if rec {
			s.fl = flagRec{kind: kAdd, w: w, a: a, b: b}
		}
		return res, true
	case 1: // or
		res := a | b
		if rec {
			s.fl = flagRec{kind: kLogic, w: w, res: res}
		}
		return res, true
	case 2: // adc
		cin := s.lazyCF()
		res := (a + b + cin) & mask
		if rec {
			s.fl = flagRec{kind: kAdd, w: w, a: a, b: b, cin: cin}
		}
		return res, true
	case 3: // sbb
		cin := s.lazyCF()
		res := (a - b - cin) & mask
		if rec {
			s.fl = flagRec{kind: kSub, w: w, a: a, b: b, cin: cin}
		}
		return res, true
	case 4: // and
		res := a & b
		if rec {
			s.fl = flagRec{kind: kLogic, w: w, res: res}
		}
		return res, true
	case 5: // sub
		res := (a - b) & mask
		if rec {
			s.fl = flagRec{kind: kSub, w: w, a: a, b: b}
		}
		return res, true
	case 6: // xor
		res := a ^ b
		if rec {
			s.fl = flagRec{kind: kLogic, w: w, res: res}
		}
		return res, true
	default: // cmp
		if rec {
			s.fl = flagRec{kind: kSub, w: w, a: a, b: b}
		}
		return 0, false
	}
}

// shiftCalc replicates Machine.execShift's result/CF computation for
// count >= 1 on a pre-masked value. ok is false for the rcl/rcr
// groups the interpreter also rejects.
func shiftCalc(sub byte, v, count uint64, w int) (res, cf uint64, ok bool) {
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
	case 1: // ror
		res = bits.RotateLeft64(v<<(64-bitsW), -int(count)) >> (64 - bitsW)
		cf = (res >> (bitsW - 1)) & 1
	default:
		return 0, 0, false
	}
	return res & emu.MaskFor(w), cf, true
}

// compile lifts the block at pc into threaded code and caches it.
func (e *Engine) compile(m *emu.Machine, pc uint64) (*block, error) {
	insts, end, err := emu.DecodeBlock(m, pc)
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
	if insts[len(insts)-1].Attrs&emu.TermAttrs == 0 {
		// The block falls off its end (size cap or decode failure
		// ahead): an epilogue op materializes the fallthrough RIP.
		b.ops = append(b.ops, func(s *state) int {
			s.m.RIP = end
			return done
		})
	}

	e.blocks[pc] = b
	e.trk.Track(pc, end)
	e.Stats.Translations++
	return b, nil
}

// emitFallback produces the interpreter-fallback micro-op: it
// materializes the flags and defers to Machine.ExecDecodedQuiet, so
// rarely-executed or stateful instructions (int3, hlt, ud2, div,
// memory-destination exotics) keep exact interpreter behaviour.
func (c *comp) emitFallback(i int) uop {
	c.killAll()
	inst := &c.b.insts[i]
	next := i + 1
	nextAddr := inst.Addr + uint64(inst.Len)
	return func(s *state) int {
		s.materialize()
		m := s.m
		if err := m.ExecDecodedQuiet(inst); err != nil {
			m.RIP = inst.Addr
			s.err = err
			return done
		}
		if m.Halted() || s.trk.Flushed || m.RIP != nextAddr {
			return done
		}
		return next
	}
}

// emit lifts insts[i] into exactly one micro-op, updating the
// constant-register tracking as a side effect.
func (c *comp) emit(i int) uop {
	inst := &c.b.insts[i]
	op := inst.Opcode
	next := i + 1
	nextAddr := inst.Addr + uint64(inst.Len)
	elide := c.elide[i]
	rec := !elide
	if elide {
		c.e.Stats.ElidedFlags++
	}
	mem := inst.Attrs&x86.AttrModRM != 0 && !emu.RMIsReg(inst)

	if inst.TwoByte {
		return c.emitTwoByte(i, inst, op, next, nextAddr, rec, mem)
	}

	switch {
	case op <= 0x3D: // classic ALU block
		aluOp := (op >> 3) & 7
		form := op & 7
		w := emu.Width(inst)
		if form == 0 || form == 2 || form == 4 {
			w = 1
		}
		mask := emu.MaskFor(w)
		w8 := uint8(w)
		switch form {
		case 0, 1: // op r/m, r
			src := emu.ModRMReg(inst)
			if !mem {
				dst := emu.ModRMRM(inst)
				if aluOp == 6 && src == dst { // xor r, r: constant zero
					c.set(dst, 0, w)
				} else if aluOp != 7 {
					c.kill(dst)
				}
				return func(s *state) int {
					m := s.m
					m.Counters.Instructions++
					m.Counters.Cycles += m.Cost.ALU
					res, write := aluExec(s, aluOp, m.Regs[dst]&mask, m.Regs[src]&mask, mask, w8, rec)
					if write {
						wreg(m, dst, res, w)
					}
					return next
				}
			}
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
				res, write := aluExec(s, aluOp, a, m.Regs[src]&mask, mask, w8, rec)
				if write {
					m.Counters.Cycles += m.Cost.Mem
					s.store(addr, res, w)
					if s.trk.Flushed {
						m.RIP = nextAddr
						return done
					}
				}
				return next
			}
		case 2, 3: // op r, r/m
			dst := emu.ModRMReg(inst)
			if aluOp != 7 {
				if aluOp == 6 && !mem && emu.ModRMRM(inst) == dst {
					c.set(dst, 0, w)
				} else {
					c.kill(dst)
				}
			}
			if !mem {
				src := emu.ModRMRM(inst)
				return func(s *state) int {
					m := s.m
					m.Counters.Instructions++
					m.Counters.Cycles += m.Cost.ALU
					res, write := aluExec(s, aluOp, m.Regs[dst]&mask, m.Regs[src]&mask, mask, w8, rec)
					if write {
						wreg(m, dst, res, w)
					}
					return next
				}
			}
			ea := c.eaFor(inst)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
				b, err := s.load(ea(m), w)
				if err != nil {
					return s.fault(inst, err)
				}
				res, write := aluExec(s, aluOp, m.Regs[dst]&mask, b, mask, w8, rec)
				if write {
					wreg(m, dst, res, w)
				}
				return next
			}
		default: // 4, 5: op al/eax/rax, imm
			b := uint64(inst.Imm()) & mask
			if aluOp != 7 {
				c.kill(x86.RAX)
			}
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				res, write := aluExec(s, aluOp, m.Regs[x86.RAX]&mask, b, mask, w8, rec)
				if write {
					wreg(m, x86.RAX, res, w)
				}
				return next
			}
		}

	case op >= 0x50 && op <= 0x57: // push r
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		c.kill(x86.RSP)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			s.push(m.Regs[r])
			if s.trk.Flushed {
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

	case op == 0x63: // movsxd r64, r/m32
		dst := emu.ModRMReg(inst)
		c.kill(dst)
		if !mem {
			src := emu.ModRMRM(inst)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				m.Regs[dst] = uint64(int64(int32(uint32(m.Regs[src]))))
				return next
			}
		}
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			v, err := s.load(ea(m), 4)
			if err != nil {
				return s.fault(inst, err)
			}
			m.Regs[dst] = uint64(int64(int32(uint32(v))))
			return next
		}

	case op == 0x68 || op == 0x6A: // push imm
		v := uint64(inst.Imm())
		c.kill(x86.RSP)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			s.push(v)
			if s.trk.Flushed {
				m.RIP = nextAddr
				return done
			}
			return next
		}

	case op == 0x69 || op == 0x6B: // imul r, r/m, imm
		return c.emitImul(i, inst, next, emu.ModRMReg(inst), uint64(inst.Imm()), true, rec, mem)

	case op >= 0x70 && op <= 0x7F: // jcc rel8
		return c.emitJcc(inst, x86.Cond(op&0xF), nextAddr)

	case op == 0x80 || op == 0x81 || op == 0x83: // group 1: alu r/m, imm
		aluOp := (inst.ModRM >> 3) & 7
		w := emu.Width(inst)
		if op == 0x80 {
			w = 1
		}
		mask := emu.MaskFor(w)
		w8 := uint8(w)
		b := uint64(inst.Imm()) & mask
		if !mem {
			dst := emu.ModRMRM(inst)
			if aluOp != 7 {
				c.kill(dst)
			}
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				res, write := aluExec(s, aluOp, m.Regs[dst]&mask, b, mask, w8, rec)
				if write {
					wreg(m, dst, res, w)
				}
				return next
			}
		}
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
			res, write := aluExec(s, aluOp, a, b, mask, w8, rec)
			if write {
				m.Counters.Cycles += m.Cost.Mem
				s.store(addr, res, w)
				if s.trk.Flushed {
					m.RIP = nextAddr
					return done
				}
			}
			return next
		}

	case op == 0x84 || op == 0x85: // test r/m, r
		w := emu.Width(inst)
		if op == 0x84 {
			w = 1
		}
		mask := emu.MaskFor(w)
		w8 := uint8(w)
		r := emu.ModRMReg(inst)
		if !mem {
			rm := emu.ModRMRM(inst)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				if rec {
					s.fl = flagRec{kind: kLogic, w: w8, res: m.Regs[rm] & m.Regs[r] & mask}
				}
				return next
			}
		}
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			a, err := s.load(ea(m), w)
			if err != nil {
				return s.fault(inst, err)
			}
			if rec {
				s.fl = flagRec{kind: kLogic, w: w8, res: a & m.Regs[r] & mask}
			}
			return next
		}

	case (op == 0x86 || op == 0x87) && !mem: // xchg r/m, r (register form)
		w := emu.Width(inst)
		if op == 0x86 {
			w = 1
		}
		mask := emu.MaskFor(w)
		rm, r := emu.ModRMRM(inst), emu.ModRMReg(inst)
		c.kill(rm)
		c.kill(r)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			a := m.Regs[rm] & mask
			b := m.Regs[r] & mask
			wreg(m, rm, b, w)
			wreg(m, r, a, w)
			return next
		}

	case op == 0x88 || op == 0x89: // mov r/m, r
		w := emu.Width(inst)
		if op == 0x88 {
			w = 1
		}
		src := emu.ModRMReg(inst)
		if !mem {
			dst := emu.ModRMRM(inst)
			if c.isKnown(src) {
				c.set(dst, c.kval[src], w)
			} else {
				c.kill(dst)
			}
			mask := emu.MaskFor(w)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				wreg(m, dst, m.Regs[src]&mask, w)
				return next
			}
		}
		ea := c.eaFor(inst)
		mask := emu.MaskFor(w)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			s.store(ea(m), m.Regs[src]&mask, w)
			if s.trk.Flushed {
				m.RIP = nextAddr
				return done
			}
			return next
		}

	case op == 0x8A || op == 0x8B: // mov r, r/m
		w := emu.Width(inst)
		if op == 0x8A {
			w = 1
		}
		dst := emu.ModRMReg(inst)
		if !mem {
			src := emu.ModRMRM(inst)
			if c.isKnown(src) {
				c.set(dst, c.kval[src], w)
			} else {
				c.kill(dst)
			}
			mask := emu.MaskFor(w)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				wreg(m, dst, m.Regs[src]&mask, w)
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
			wreg(m, dst, v, w)
			return next
		}

	case op == 0x8D: // lea
		w := emu.Width(inst)
		dst := emu.ModRMReg(inst)
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
			wreg(m, dst, ea(m), w)
			return next
		}

	case op == 0x8F && !mem: // pop r/m64 (register form)
		rm := emu.ModRMRM(inst)
		c.kill(x86.RSP)
		c.kill(rm)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			v, err := s.pop()
			if err != nil {
				return s.fault(inst, err)
			}
			m.Regs[rm] = v
			return next
		}

	case op == 0x90: // nop
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			return next
		}

	case op >= 0x91 && op <= 0x97: // xchg rax, r
		w := emu.Width(inst)
		mask := emu.MaskFor(w)
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		c.kill(x86.RAX)
		c.kill(r)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			a := m.Regs[x86.RAX] & mask
			wreg(m, x86.RAX, m.Regs[r]&mask, w)
			wreg(m, r, a, w)
			return next
		}

	case op == 0x98: // cdqe / cwde
		c.kill(x86.RAX)
		if inst.Rex&8 != 0 {
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				m.Regs[x86.RAX] = uint64(int64(int32(uint32(m.Regs[x86.RAX]))))
				return next
			}
		}
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			wreg(m, x86.RAX, uint64(uint32(int32(int16(uint16(m.Regs[x86.RAX]))))), 4)
			return next
		}

	case op == 0x99: // cqo / cdq
		c.kill(x86.RDX)
		if inst.Rex&8 != 0 {
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				m.Regs[x86.RDX] = uint64(int64(m.Regs[x86.RAX]) >> 63)
				return next
			}
		}
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			wreg(m, x86.RDX, uint64(uint32(int32(uint32(m.Regs[x86.RAX]))>>31)), 4)
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
			if s.trk.Flushed {
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
			m.Flags = v | emu.FlagsAlways
			s.fl.kind = kEager
			return next
		}

	case op == 0xA8 || op == 0xA9: // test al/eax, imm
		w := emu.Width(inst)
		if op == 0xA8 {
			w = 1
		}
		mask := emu.MaskFor(w)
		w8 := uint8(w)
		b := uint64(inst.Imm()) & mask
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			if rec {
				s.fl = flagRec{kind: kLogic, w: w8, res: m.Regs[x86.RAX] & mask & b}
			}
			return next
		}

	case op >= 0xB0 && op <= 0xB7: // mov r8, imm8
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		v := uint64(inst.Imm())
		c.set(r, v, 1)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			wreg(m, r, v, 1)
			return next
		}

	case op >= 0xB8 && op <= 0xBF: // mov r, imm
		w := emu.Width(inst)
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		v := uint64(inst.Imm())
		if w != 8 {
			v &= emu.MaskFor(w)
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
			wreg(m, r, v, w)
			return next
		}

	case (op == 0xC0 || op == 0xC1 || op == 0xD0 || op == 0xD1 ||
		op == 0xD2 || op == 0xD3) && !mem: // shift r, count
		sub := (inst.ModRM >> 3) & 7
		if sub == 2 || sub == 3 { // rcl/rcr: interpreter errors too
			return c.emitFallback(i)
		}
		w := emu.Width(inst)
		if op == 0xC0 || op == 0xD0 || op == 0xD2 {
			w = 1
		}
		mask := emu.MaskFor(w)
		w8 := uint8(w)
		cmask := uint64(31)
		if w == 8 {
			cmask = 63
		}
		r := emu.ModRMRM(inst)
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
				wreg(m, r, v, w)
				return next
			}
			res, cf, _ := shiftCalc(sub, v, n, w)
			if rec {
				prevAF := s.lazyAF()
				s.fl = flagRec{kind: kShift, w: w8, res: res, aux: uint8(cf) | uint8(prevAF)<<1}
			}
			wreg(m, r, res, w)
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
			m.RIP = s.branch(nextAddr, ret)
			return done
		}

	case op == 0xC6 || op == 0xC7: // mov r/m, imm
		w := emu.Width(inst)
		if op == 0xC6 {
			w = 1
		}
		v := uint64(inst.Imm()) & emu.MaskFor(w)
		if !mem {
			dst := emu.ModRMRM(inst)
			c.set(dst, v, w)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				wreg(m, dst, v, w)
				return next
			}
		}
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			s.store(ea(m), v, w)
			if s.trk.Flushed {
				m.RIP = nextAddr
				return done
			}
			return next
		}

	case op == 0xC9: // leave
		c.kill(x86.RSP)
		c.kill(x86.RBP)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			m.Regs[x86.RSP] = m.Regs[x86.RBP]
			v, err := s.pop()
			if err != nil {
				return s.fault(inst, err)
			}
			m.Regs[x86.RBP] = v
			return next
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
			m.RIP = s.branch(nextAddr, target)
			return done
		}

	case op == 0xE9 || op == 0xEB: // jmp rel
		target := inst.Target()
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			m.RIP = s.branch(nextAddr, target)
			return done
		}

	case op == 0xF5: // cmc
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			s.materialize()
			m.Flags ^= emu.FlagCF
			return next
		}

	case op == 0xF8 || op == 0xF9: // clc / stc
		on := op == 0xF9
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			s.materialize()
			m.SetFlagTo(emu.FlagCF, on)
			return next
		}

	case op == 0xFC || op == 0xFD: // cld / std (DF is not deferred)
		on := op == 0xFD
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			m.SetFlagTo(emu.FlagDF, on)
			return next
		}

	case op == 0xF6 || op == 0xF7: // group 3
		sub := (inst.ModRM >> 3) & 7
		if sub > 3 { // mul/imul/div/idiv: interpreter fallback
			return c.emitFallback(i)
		}
		w := emu.Width(inst)
		if op == 0xF6 {
			w = 1
		}
		mask := emu.MaskFor(w)
		w8 := uint8(w)
		imm := uint64(inst.Imm()) & mask
		if !mem {
			rm := emu.ModRMRM(inst)
			if sub == 2 || sub == 3 {
				c.kill(rm)
			}
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				v := m.Regs[rm] & mask
				switch sub {
				case 0, 1: // test r/m, imm
					if rec {
						s.fl = flagRec{kind: kLogic, w: w8, res: v & imm}
					}
				case 2: // not
					wreg(m, rm, ^v&mask, w)
				default: // 3: neg — exactly sub(0, v) including CF
					if rec {
						s.fl = flagRec{kind: kSub, w: w8, b: v}
					}
					wreg(m, rm, -v&mask, w)
				}
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
			var res uint64
			switch sub {
			case 0, 1:
				if rec {
					s.fl = flagRec{kind: kLogic, w: w8, res: v & imm}
				}
				return next
			case 2:
				res = ^v & mask
			default: // 3: neg
				if rec {
					s.fl = flagRec{kind: kSub, w: w8, b: v}
				}
				res = -v & mask
			}
			m.Counters.Cycles += m.Cost.Mem
			s.store(addr, res, w)
			if s.trk.Flushed {
				m.RIP = nextAddr
				return done
			}
			return next
		}

	case op == 0xFE, op == 0xFF && (inst.ModRM>>3)&7 <= 1: // inc/dec r/m
		w := 1
		if op == 0xFF {
			w = emu.Width(inst)
		}
		decOp := (inst.ModRM>>3)&7 == 1
		return c.emitIncDec(i, inst, next, nextAddr, w, decOp, rec, mem)

	case op == 0xFF: // group 5: call/jmp/push via r/m
		sub := (inst.ModRM >> 3) & 7
		switch sub {
		case 2, 4, 6:
		default:
			return c.emitFallback(i)
		}
		var ea func(*emu.Machine) uint64
		var rm x86.Reg
		if mem {
			ea = c.eaFor(inst)
		} else {
			rm = emu.ModRMRM(inst)
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
				t = m.Regs[rm]
			}
			switch sub {
			case 2: // call
				s.push(nextAddr)
				m.Counters.Cycles += m.Cost.CallRet
				m.RIP = s.branch(nextAddr, t)
				return done
			case 4: // jmp
				m.RIP = s.branch(nextAddr, t)
				return done
			default: // 6: push
				s.push(t)
				if s.trk.Flushed {
					m.RIP = nextAddr
					return done
				}
				return next
			}
		}
	}

	return c.emitFallback(i)
}

// emitTwoByte lifts 0F-escaped opcodes.
func (c *comp) emitTwoByte(i int, inst *x86.Inst, op byte, next int, nextAddr uint64, rec, mem bool) uop {
	switch {
	case op == 0x1E || op == 0x1F || op == 0x0D || (op >= 0x18 && op <= 0x1D): // hint nops
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			return next
		}

	case op >= 0x40 && op <= 0x4F: // cmovcc
		w := emu.Width(inst)
		mask := emu.MaskFor(w)
		cc := x86.Cond(op & 0xF)
		r := emu.ModRMReg(inst)
		c.kill(r)
		if !mem {
			rm := emu.ModRMRM(inst)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				v := m.Regs[rm] & mask
				if s.lazyCond(cc) {
					wreg(m, r, v, w)
				} else if w == 4 {
					// 32-bit cmov zero-extends even when not taken.
					m.Regs[r] &= 0xFFFFFFFF
				}
				return next
			}
		}
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			v, err := s.load(ea(m), w) // the read happens (and may
			if err != nil {            // fault) regardless of cc
				return s.fault(inst, err)
			}
			if s.lazyCond(cc) {
				wreg(m, r, v, w)
			} else if w == 4 {
				m.Regs[r] &= 0xFFFFFFFF
			}
			return next
		}

	case op >= 0x80 && op <= 0x8F: // jcc rel32
		return c.emitJcc(inst, x86.Cond(op&0xF), nextAddr)

	case op >= 0x90 && op <= 0x9F: // setcc
		cc := x86.Cond(op & 0xF)
		if !mem {
			rm := emu.ModRMRM(inst)
			c.kill(rm)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				var v uint64
				if s.lazyCond(cc) {
					v = 1
				}
				wreg(m, rm, v, 1)
				return next
			}
		}
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			var v uint64
			if s.lazyCond(cc) {
				v = 1
			}
			s.store(ea(m), v, 1)
			if s.trk.Flushed {
				m.RIP = nextAddr
				return done
			}
			return next
		}

	case op == 0xAF: // imul r, r/m
		return c.emitImul(i, inst, next, emu.ModRMReg(inst), 0, false, rec, mem)

	case op == 0xB6 || op == 0xB7 || op == 0xBE || op == 0xBF: // movzx/movsx
		sw := 1
		if op == 0xB7 || op == 0xBF {
			sw = 2
		}
		signed := op >= 0xBE
		w := emu.Width(inst)
		mask := emu.MaskFor(w)
		smask := emu.MaskFor(sw)
		shift := uint(64 - 8*sw)
		dst := emu.ModRMReg(inst)
		c.kill(dst)
		ext := func(v uint64) uint64 {
			if signed {
				return uint64(int64(v<<shift)>>shift) & mask
			}
			return v
		}
		if !mem {
			src := emu.ModRMRM(inst)
			return func(s *state) int {
				m := s.m
				m.Counters.Instructions++
				m.Counters.Cycles += m.Cost.ALU
				wreg(m, dst, ext(m.Regs[src]&smask), w)
				return next
			}
		}
		ea := c.eaFor(inst)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU + m.Cost.Mem
			v, err := s.load(ea(m), sw)
			if err != nil {
				return s.fault(inst, err)
			}
			wreg(m, dst, ext(v), w)
			return next
		}
	}

	return c.emitFallback(i) // ud2 and anything unlifted
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
			m.RIP = s.branch(nextAddr, target)
		} else {
			m.RIP = nextAddr
		}
		return done
	}
}

// emitImul lifts the two-operand (and immediate) imul forms.
func (c *comp) emitImul(i int, inst *x86.Inst, next int, dst x86.Reg, imm uint64, hasImm, rec, mem bool) uop {
	w := emu.Width(inst)
	mask := emu.MaskFor(w)
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
		src := emu.ModRMRM(inst)
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
			wreg(m, dst, mul(s, a, b), w)
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
		wreg(m, dst, mul(s, a, b), w)
		return next
	}
}

// emitIncDec lifts inc/dec in both widths and operand forms; CF is
// preserved via the record's aux bit.
func (c *comp) emitIncDec(i int, inst *x86.Inst, next int, nextAddr uint64, w int, dec, rec, mem bool) uop {
	mask := emu.MaskFor(w)
	w8 := uint8(w)
	kind := uint8(kInc)
	delta := uint64(1)
	if dec {
		kind = kDec
		delta = ^uint64(0) // -1
	}
	if !mem {
		rm := emu.ModRMRM(inst)
		c.kill(rm)
		return func(s *state) int {
			m := s.m
			m.Counters.Instructions++
			m.Counters.Cycles += m.Cost.ALU
			v := m.Regs[rm] & mask
			res := (v + delta) & mask
			if rec {
				s.fl = flagRec{kind: kind, w: w8, a: v, aux: uint8(s.lazyCF())}
			}
			wreg(m, rm, res, w)
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
		res := (v + delta) & mask
		if rec {
			s.fl = flagRec{kind: kind, w: w8, a: v, aux: uint8(s.lazyCF())}
		}
		m.Counters.Cycles += m.Cost.Mem
		s.store(addr, res, w)
		if s.trk.Flushed {
			m.RIP = nextAddr
			return done
		}
		return next
	}
}
