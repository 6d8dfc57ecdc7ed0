package emu

import (
	"math/bits"

	"e9patch/internal/x86"
)

// Block compiler: decode (shared seam) → flag-liveness analysis →
// micro-op emission with constant effective-address folding. Exactly
// one micro-op is emitted per instruction, so micro-op index i
// executes insts[i] (a fused pair's first op executes both, and the
// second is never reached); a trailing epilogue op is added when the
// block can fall off its end (size cap or a decode failure ahead).
// Micro-ops charge everything but the base cost of each instruction,
// which Run charges per block.
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

// addrCalc is a memory operand's effective address as the lift
// resolved it: (base & bmask) + (index & imask) << shift + k. A
// component folded to a lift-time constant, or absent, has a zero
// mask and its value in k, so computing the address takes no branch
// and no call.
type addrCalc struct {
	base, idx    x86.Reg
	shift        uint8
	bmask, imask uint64
	k            uint64
}

// at is the address under m's registers.
func (a *addrCalc) at(m *Machine) uint64 {
	return m.Regs[a.base]&a.bmask + (m.Regs[a.idx]&a.imask)<<a.shift + a.k
}

// eaFor resolves a memory operand's effective address, folding the
// components that are constant at lift time.
func (c *comp) eaFor(inst *x86.Inst) addrCalc {
	if inst.RIPRel {
		c.e.Stats.FoldedEAs++
		return addrCalc{k: inst.Addr + uint64(inst.Len) + uint64(inst.Disp())}
	}
	a := addrCalc{k: uint64(inst.Disp())}
	base, idx := inst.MemBase, inst.MemIndex
	haveBase := base != x86.NoReg && base != x86.RIP
	haveIdx := idx != x86.NoReg
	switch {
	case !haveBase:
	case c.isKnown(base):
		a.k += c.kval[base]
	default:
		a.base, a.bmask = base, ^uint64(0)
	}
	shift := uint8(bits.TrailingZeros8(inst.MemScale))
	switch {
	case !haveIdx:
	case c.isKnown(idx):
		a.k += c.kval[idx] << shift
	default:
		a.idx, a.imask, a.shift = idx, ^uint64(0), shift
	}
	if (haveBase || haveIdx) && a.bmask == 0 && a.imask == 0 {
		c.e.Stats.FoldedEAs++
	}
	return a
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
	n := len(insts)
	last := &insts[n-1]
	b.succAddr[0] = end
	if last.RelSize != 0 {
		b.succAddr[1] = last.Target()
	} else {
		b.dynamic = true
	}

	c := &comp{e: e, b: b}
	c.analyzeFlags()
	b.ops = make([]uop, 0, n+1)
	b.full = n - 1
	for i := range insts {
		if i == n-2 && fusable(&insts[i], last) {
			b.ops = append(b.ops, c.emitFused(i))
			b.full = i
			continue
		}
		b.ops = append(b.ops, c.emit(i))
	}
	if last.Attrs&termAttrs == 0 {
		b.full = n
		// The block falls off its end (size cap or decode failure
		// ahead): an epilogue op materializes the fallthrough RIP.
		b.ops = append(b.ops, func(s *state) bool {
			s.m.RIP = end
			return done
		})
	}

	e.blocks[pc] = b
	seg := pc // each segment's pages, not the span between them
	for i := 1; i < n; i++ {
		if prevEnd := insts[i-1].Addr + uint64(insts[i-1].Len); insts[i].Addr != prevEnd {
			e.trk.track(seg, prevEnd)
			seg = insts[i].Addr
		}
	}
	e.trk.track(seg, end)
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
	nextAddr := inst.Addr + uint64(inst.Len)
	return func(s *state) bool {
		s.materialize()
		m := s.m
		// The block charged this instruction on entry; the interpreter
		// charges it again.
		m.Counters.Instructions--
		m.Counters.Cycles -= m.Cost.ALU
		if err := m.execDecodedQuiet(inst); err != nil {
			m.RIP = inst.Addr
			s.err = err
			return done
		}
		if m.Halted() || s.trk.flushed || m.RIP != nextAddr {
			return done
		}
		return true
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
	nextAddr := inst.Addr + uint64(inst.Len)
	elide := c.elide[i]
	rec := !elide
	if elide {
		c.e.Stats.ElidedFlags++
	}
	mem := inst.Attrs&x86.AttrModRM != 0 && !rmIsReg(inst)
	rm := operand{reg: modrmRM(inst), mem: mem}
	reg := operand{reg: modrmReg(inst)}

	if aluOp, write, dst, src, ok := aluForm(inst); ok {
		return c.emitALU(i, aluOp, write, dst, src)
	}
	if inst.TwoByte {
		switch {
		case op >= 0x80 && op <= 0x8F: // jcc rel32
			return c.emitJcc(inst, x86.Cond(op&0xF), nextAddr)
		case op == 0xAF: // imul r, r/m
			return c.emitImul(inst, reg.reg, 0, false, rec, mem)
		}
		return c.emitFallback(i) // ud2 and anything unlifted
	}

	switch {
	case op >= 0x50 && op <= 0x57, op == 0x68: // push r, push imm32 (an
		// epilogue's copy of a call pushes the return address)
		r, imm := x86.Reg(op&7|(inst.Rex&1)<<3), uint64(inst.Imm())
		c.kill(x86.RSP)
		return func(s *state) bool {
			m := s.m
			if op == 0x68 {
				s.push(imm)
			} else {
				s.push(m.Regs[r])
			}
			if s.trk.flushed {
				m.RIP = nextAddr
				return done
			}
			return true
		}

	case op >= 0x58 && op <= 0x5F: // pop r
		r := x86.Reg(op&7 | (inst.Rex&1)<<3)
		c.kill(x86.RSP)
		c.kill(r)
		return func(s *state) bool {
			m := s.m
			v, err := s.pop()
			if err != nil {
				return s.fault(inst, err)
			}
			m.Regs[r] = v
			return true
		}

	case op == 0x69 || op == 0x6B: // imul r, r/m, imm
		return c.emitImul(inst, reg.reg, uint64(inst.Imm()), true, rec, mem)

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
			return func(s *state) bool {
				m := s.m
				m.regWrite(dst, m.Regs[src]&mask, w)
				return true
			}
		}
		if op < 0x8A {
			ea := c.eaFor(inst)
			return func(s *state) bool {
				m := s.m
				m.Counters.Cycles += m.Cost.Mem
				s.store(ea.at(m), m.Regs[src]&mask, w)
				if s.trk.flushed {
					m.RIP = nextAddr
					return done
				}
				return true
			}
		}
		c.kill(dst)
		ea := c.eaFor(inst)
		return func(s *state) bool {
			m := s.m
			m.Counters.Cycles += m.Cost.Mem
			v, err := s.load(ea.at(m), w)
			if err != nil {
				return s.fault(inst, err)
			}
			m.regWrite(dst, v, w)
			return true
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
		return func(s *state) bool {
			m := s.m
			m.regWrite(dst, ea.at(m), w)
			return true
		}

	case op == 0x9C: // pushfq
		c.kill(x86.RSP)
		return func(s *state) bool {
			m := s.m
			s.materialize()
			s.push(m.Flags)
			if s.trk.flushed {
				m.RIP = nextAddr
				return done
			}
			return true
		}

	case op == 0x9D: // popfq
		c.kill(x86.RSP)
		return func(s *state) bool {
			m := s.m
			v, err := s.pop()
			if err != nil {
				return s.fault(inst, err)
			}
			m.Flags = v | flagsAlways
			s.fl.kind = kEager
			return true
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
			return func(s *state) bool {
				m := s.m
				m.Regs[r] = v
				return true
			}
		}
		return func(s *state) bool {
			m := s.m
			m.regWrite(r, v, w)
			return true
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
		return func(s *state) bool {
			m := s.m
			n := count
			if byCL {
				n = m.Regs[x86.RCX] & cmask
			}
			v := m.Regs[r] & mask
			if n == 0 { // flags untouched, value rewritten
				m.regWrite(r, v, w)
				return true
			}
			res, cf := shiftCalc(sub, v, n, w)
			if rec {
				prevAF := s.lazyAF()
				s.fl = flagRec{kind: kShift, w: w8, res: res, aux: uint8(cf) | uint8(prevAF)<<1}
			}
			m.regWrite(r, res, w)
			return true
		}

	case op == 0xC2 || op == 0xC3: // ret [imm16]
		var adj uint64
		if op == 0xC2 {
			adj = uint64(inst.Imm()) & 0xFFFF
		}
		return func(s *state) bool {
			m := s.m
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
		if i < len(c.b.insts)-1 { // followed: the callee runs on in this block
			return func(s *state) bool {
				m := s.m
				s.push(nextAddr)
				m.Counters.Cycles += m.Cost.CallRet
				m.branch(nextAddr, target)
				if s.trk.flushed {
					m.RIP = target
					return done
				}
				return true
			}
		}
		return func(s *state) bool {
			m := s.m
			s.push(nextAddr)
			m.Counters.Cycles += m.Cost.CallRet
			m.RIP = m.branch(nextAddr, target)
			return done
		}

	case op == 0xE9 || op == 0xEB: // jmp rel
		target := inst.Target()
		if i < len(c.b.insts)-1 { // followed: the target runs on in this block
			return func(s *state) bool {
				m := s.m
				m.branch(nextAddr, target)
				return true
			}
		}
		return func(s *state) bool {
			m := s.m
			m.RIP = m.branch(nextAddr, target)
			return done
		}

	case op == 0xF7 && sub == 2: // not r/m
		w := width(inst)
		mask := maskFor(w)
		if !mem {
			r := rm.reg
			c.kill(r)
			return func(s *state) bool {
				m := s.m
				m.regWrite(r, ^m.Regs[r]&mask, w)
				return true
			}
		}
		ea := c.eaFor(inst)
		return func(s *state) bool {
			m := s.m
			m.Counters.Cycles += m.Cost.Mem
			addr := ea.at(m)
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
			return true
		}

	case op == 0xFF && (sub == 2 || sub == 4 || sub == 6): // group 5: call/jmp/push r/m
		var ea addrCalc
		if mem {
			ea = c.eaFor(inst)
		}
		if sub != 4 {
			c.kill(x86.RSP)
		}
		return func(s *state) bool {
			m := s.m
			var t uint64
			if mem {
				m.Counters.Cycles += m.Cost.Mem
				var err error
				t, err = s.load(ea.at(m), 8)
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
				return true
			}
		}
	}

	return c.emitFallback(i)
}

// aluForm decodes the instructions emitALU lifts — the classic 00–3D
// block, group 1 (80/81/83) and test (84/85, A8/A9), which is aluOp 4
// (and) with no write — into the ALU op, whether it writes its
// destination (not for cmp and test), and its operands. ok is false
// for any other instruction.
func aluForm(inst *x86.Inst) (aluOp byte, write bool, dst, src operand, ok bool) {
	if inst.TwoByte {
		return
	}
	op := inst.Opcode
	rm := operand{reg: modrmRM(inst), mem: inst.Attrs&x86.AttrModRM != 0 && !rmIsReg(inst)}
	reg := operand{reg: modrmReg(inst)}
	rax, imm := operand{reg: x86.RAX}, operand{imm: true}
	switch {
	case op <= 0x3D: // classic ALU block
		aluOp = (op >> 3) & 7
		switch op & 7 {
		case 0, 1: // op r/m, r
			return aluOp, aluOp != 7, rm, reg, true
		case 2, 3: // op r, r/m
			return aluOp, aluOp != 7, reg, rm, true
		default: // 4, 5: op al/eax/rax, imm
			return aluOp, aluOp != 7, rax, imm, true
		}
	case op == 0x80 || op == 0x81 || op == 0x83: // group 1: alu r/m, imm
		sub := (inst.ModRM >> 3) & 7
		return sub, sub != 7, rm, imm, true
	case op == 0x84 || op == 0x85: // test r/m, r: and, no write
		return 4, false, rm, reg, true
	case op == 0xA8 || op == 0xA9: // test al/eax, imm
		return 4, false, rax, imm, true
	}
	return
}

// jccCond returns the condition of a conditional branch (rel8 or
// rel32); ok is false for any other instruction.
func jccCond(inst *x86.Inst) (cc x86.Cond, ok bool) {
	op := inst.Opcode
	if inst.TwoByte {
		return x86.Cond(op & 0xF), op >= 0x80 && op <= 0x8F
	}
	return x86.Cond(op & 0xF), op >= 0x70 && op <= 0x7F
}

// fusable reports whether first and the conditional branch jcc after
// it, which ends the block, lift as one micro-op (emitFused): first is
// an ALU, cmp or test with register and immediate operands only, so it
// cannot fault, flush or otherwise leave the block, and the pair
// retires whole. TestFusedPairsCannotLeaveEarly holds this to
// flagEffects.
func fusable(first, jcc *x86.Inst) bool {
	_, _, dst, src, ok := aluForm(first)
	_, isJcc := jccCond(jcc)
	return ok && isJcc && !dst.mem && !src.mem
}

// emitFused lifts the pair insts[i], insts[i+1] that fusable accepted
// into the micro-op at index i: the ALU op records its flags as
// emitALU's would (they are live at the block end), and the branch
// reads its condition straight off the operands. The jcc keeps its
// own micro-op at i+1, which the fused op never reaches.
func (c *comp) emitFused(i int) uop {
	inst, jcc := &c.b.insts[i], &c.b.insts[i+1]
	aluOp, write, dst, src, _ := aluForm(inst)
	cc, _ := jccCond(jcc)
	target, jnext := jcc.Target(), jcc.Addr+uint64(jcc.Len)
	w := pairWidth(inst)
	mask := maskFor(w)
	w8 := uint8(w)
	d, r, useImm := dst.reg, src.reg, src.imm
	imm := uint64(inst.Imm()) & mask
	switch aluOp {
	case 5, 7: // sub, cmp
		return func(s *state) bool {
			m := s.m
			a, b := m.Regs[d]&mask, imm
			if !useImm {
				b = m.Regs[r] & mask
			}
			s.fl = flagRec{kind: kSub, w: w8, a: a, b: b}
			if write {
				m.regWrite(d, (a-b)&mask, w)
			}
			return jccExit(m, subCond(cc, a, b, w8), jnext, target)
		}
	case 4: // and, test
		return func(s *state) bool {
			m := s.m
			b := imm
			if !useImm {
				b = m.Regs[r] & mask
			}
			res := m.Regs[d] & mask & b
			s.fl = flagRec{kind: kLogic, w: w8, res: res}
			if write {
				m.regWrite(d, res, w)
			}
			return jccExit(m, logicCond(cc, res, w8), jnext, target)
		}
	}
	return func(s *state) bool {
		m := s.m
		b := imm
		if !useImm {
			b = m.Regs[r] & mask
		}
		res := aluExec(s, aluOp, m.Regs[d]&mask, b, mask, w8, true)
		if write {
			m.regWrite(d, res, w)
		}
		return jccExit(m, s.lazyCond(cc), jnext, target)
	}
}

// subCond is lazyCond of the record a - b (no borrow in) on pre-masked
// w-byte operands, computed from the operands.
func subCond(cc x86.Cond, a, b uint64, w uint8) bool {
	sign := 8*uint(w) - 1
	var v bool
	switch cc &^ 1 {
	case x86.CondO:
		v = ((a^b)&(a^(a-b)))>>sign&1 != 0
	case x86.CondB:
		v = a < b
	case x86.CondE:
		v = a == b
	case x86.CondBE:
		v = a <= b
	case x86.CondS:
		v = (a-b)>>sign&1 != 0
	case x86.CondP:
		v = bits.OnesCount8(uint8(a-b))%2 == 0
	case x86.CondL: // SF != OF: a < b as signed w-byte values
		v = int64(a<<(63-sign)) < int64(b<<(63-sign))
	case x86.CondLE:
		v = int64(a<<(63-sign)) <= int64(b<<(63-sign))
	}
	return v != (cc&1 == 1)
}

// logicCond is lazyCond of a logic record (CF = OF = 0) with masked
// result res.
func logicCond(cc x86.Cond, res uint64, w uint8) bool {
	neg := res>>(8*uint(w)-1)&1 != 0
	var v bool
	switch cc &^ 1 {
	case x86.CondE, x86.CondBE:
		v = res == 0
	case x86.CondS, x86.CondL:
		v = neg
	case x86.CondP:
		v = bits.OnesCount8(uint8(res))%2 == 0
	case x86.CondLE:
		v = res == 0 || neg
	}
	return v != (cc&1 == 1)
}

// emitALU lifts every ALU-shaped instruction (aluForm) as dst = dst op
// src, one closure per operand shape with a memory operand (through
// aluExec) and regALU's for a register destination with a register or
// immediate source. write is false for cmp and test.
func (c *comp) emitALU(i int, aluOp byte, write bool, dst, src operand) uop {
	inst := &c.b.insts[i]
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
		return func(s *state) bool {
			m := s.m
			m.Counters.Cycles += m.Cost.Mem
			addr := ea.at(m)
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
			return true
		}
	case dst.mem:
		ea := c.eaFor(inst)
		return func(s *state) bool {
			m := s.m
			m.Counters.Cycles += m.Cost.Mem
			addr := ea.at(m)
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
			return true
		}
	case src.mem:
		ea := c.eaFor(inst)
		return func(s *state) bool {
			m := s.m
			m.Counters.Cycles += m.Cost.Mem
			v, err := s.load(ea.at(m), w)
			if err != nil {
				return s.fault(inst, err)
			}
			res := aluExec(s, aluOp, m.Regs[d]&mask, v, mask, w8, rec)
			if write {
				m.regWrite(d, res, w)
			}
			return true
		}
	}
	return regALU(aluOp, write, rec, d, r, src.imm, b, w)
}

// regALU lifts an ALU op with a register destination and a register
// (useImm false) or immediate source, the shape loop bodies and
// trampolines run most: add, sub, cmp, and, test, or and xor compute
// in place of aluExec's switch; adc and sbb go through it.
func regALU(aluOp byte, write, rec bool, d, r x86.Reg, useImm bool, imm uint64, w int) uop {
	mask := maskFor(w)
	w8 := uint8(w)
	switch aluOp {
	case 0: // add
		return func(s *state) bool {
			m := s.m
			a, b := m.Regs[d]&mask, imm
			if !useImm {
				b = m.Regs[r] & mask
			}
			if rec {
				s.fl = flagRec{kind: kAdd, w: w8, a: a, b: b}
			}
			m.regWrite(d, (a+b)&mask, w)
			return true
		}
	case 5, 7: // sub, cmp
		return func(s *state) bool {
			m := s.m
			a, b := m.Regs[d]&mask, imm
			if !useImm {
				b = m.Regs[r] & mask
			}
			if rec {
				s.fl = flagRec{kind: kSub, w: w8, a: a, b: b}
			}
			if write {
				m.regWrite(d, (a-b)&mask, w)
			}
			return true
		}
	case 2, 3: // adc, sbb
		return func(s *state) bool {
			m := s.m
			b := imm
			if !useImm {
				b = m.Regs[r] & mask
			}
			m.regWrite(d, aluExec(s, aluOp, m.Regs[d]&mask, b, mask, w8, rec), w)
			return true
		}
	}
	return func(s *state) bool { // or, and/test, xor
		m := s.m
		a, b := m.Regs[d]&mask, imm
		if !useImm {
			b = m.Regs[r] & mask
		}
		var res uint64
		switch aluOp {
		case 1:
			res = a | b
		case 4:
			res = a & b
		default:
			res = a ^ b
		}
		if rec {
			s.fl = flagRec{kind: kLogic, w: w8, res: res}
		}
		if write {
			m.regWrite(d, res, w)
		}
		return true
	}
}

// emitJcc lifts a conditional branch: the condition is answered
// straight from the deferred flag record.
func (c *comp) emitJcc(inst *x86.Inst, cc x86.Cond, nextAddr uint64) uop {
	target := inst.Target()
	return func(s *state) bool {
		return jccExit(s.m, s.lazyCond(cc), nextAddr, target)
	}
}

// jccExit leaves the block through a conditional branch whose
// fallthrough is next: to target, charged as a taken branch, or on.
func jccExit(m *Machine, taken bool, next, target uint64) bool {
	if taken {
		m.RIP = m.branch(next, target)
	} else {
		m.RIP = next
	}
	return done
}

// emitImul lifts the two-operand (and immediate) imul forms.
func (c *comp) emitImul(inst *x86.Inst, dst x86.Reg, imm uint64, hasImm, rec, mem bool) uop {
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
		return func(s *state) bool {
			m := s.m
			m.Counters.Cycles += m.Cost.Mul
			a := m.Regs[src] & mask
			b := imm
			if !hasImm {
				b = a
				a = m.Regs[dst] & mask
			}
			m.regWrite(dst, mul(s, a, b), w)
			return true
		}
	}
	ea := c.eaFor(inst)
	return func(s *state) bool {
		m := s.m
		m.Counters.Cycles += m.Cost.Mem
		v, err := s.load(ea.at(m), w)
		if err != nil {
			return s.fault(inst, err)
		}
		m.Counters.Cycles += m.Cost.Mul
		a, b := v, imm
		if !hasImm {
			a, b = m.Regs[dst]&mask, v
		}
		m.regWrite(dst, mul(s, a, b), w)
		return true
	}
}
