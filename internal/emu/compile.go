package emu

import (
	"math/bits"

	"e9patch/internal/x86"
)

// Block compiler: decode (shared seam) → flag-liveness analysis →
// static costs → micro-op emission. Each micro-op is specialised for
// its instruction's exact shape at lift time: its operand width is the
// type parameter of a generic lift (word), a register or immediate
// source is an address the op reads (a register's slot, or the block's
// copy of the immediate), a compare-only op writes its result to a
// sink instead of a register, the flag record is present only when
// liveness keeps it, and a memory access has one fixed width. Ops and
// instructions do not align: a followed jmp, and a cmp or test whose
// flags are dead, lift to no op; a fused pair (with the followed jumps
// between its halves) is one op; and a trailing epilogue op is added
// when the block can fall off its end (size cap or a decode failure
// ahead). Micro-ops charge only what depends on run-time values;
// staticCost is the rest, which Run charges per block.
//
// The lift set is the measured hot set: the forms (opcode, operand
// kinds, a shift's count source) that the emu-kernels kernels
// (original and rewritten) and the Figure 4/5 and Table 1 runs
// execute. Every other instruction is one interpreter-fallback
// micro-op (emitFallback), which flagEffects marks unsafe.

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

// shiftCount is the count of a shift by an immediate (C0/C1), masked
// as the hardware masks it. A count of zero leaves all flags untouched.
func shiftCount(inst *x86.Inst) uint64 {
	if inst.Opcode == 0xC1 && width(inst) == 8 {
		return uint64(inst.Imm()) & 63
	}
	return uint64(inst.Imm()) & 31
}

// liftedShift reports whether inst is a shift the engine lifts: shl or
// shr of a register by an immediate (C0/C1 /4 and /5).
func liftedShift(inst *x86.Inst, mem bool) bool {
	sub := (inst.ModRM >> 3) & 7
	return (inst.Opcode == 0xC0 || inst.Opcode == 0xC1) && !mem && (sub == 4 || sub == 5)
}

// highByte reports whether inst is a byte form the lift would take
// (ALU, test, mov, shift) that names ah, ch, dh or bh: a register
// operand 4–7 without a REX prefix, which exec resolves (gpr). A lifted
// operand addresses a register's slot, so the lift leaves these forms
// to the interpreter.
func highByte(inst *x86.Inst) bool {
	if inst.Rex != 0 || inst.TwoByte || pairWidth(inst) != 1 {
		return false
	}
	rm := operand{reg: modrmRM(inst), mem: !rmIsReg(inst)}
	_, _, dst, src, ok := aluForm(inst)
	switch op := inst.Opcode; {
	case ok:
	case op == 0x88 || op == 0x8A:
		dst, src = rm, operand{reg: modrmReg(inst)}
	case op == 0xC0:
		dst, src = rm, operand{imm: true}
	default:
		return false
	}
	for _, o := range []operand{dst, src} {
		if _, sh := gpr(inst, o.reg, 1); !o.imm && !o.mem && sh != 0 {
			return true
		}
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
	if cc, ok := jccCond(inst); ok {
		return condFlags(cc), 0, false
	}
	if highByte(inst) {
		return fAll, 0, true // fallback
	}
	if inst.TwoByte {
		if op == 0xAF && !mem { // imul r, r
			return fAF, fAll &^ fAF, false
		}
		return fAll, 0, true // ud2 and anything unlifted: fallback
	}
	if aluOp, _, _, _, ok := aluForm(inst); ok {
		if aluOp == 2 || aluOp == 3 { // adc/sbb read CF
			return fCF, fAll, mem
		}
		return 0, fAll, mem
	}
	switch {
	case op >= 0x50 && op <= 0x5F, op == 0x68: // push/pop r, push imm32: the
		// store may raise an SMC flush, the load may fault
		return 0, 0, true
	case (op == 0x69 || op == 0x6B) && !mem: // imul r, r, imm
		return fAF, fAll &^ fAF, false
	case op >= 0x88 && op <= 0x8B: // mov
		return 0, 0, mem
	case op == 0x8D: // lea: address is computed, never accessed
		return 0, 0, false
	case op == 0x9C: // pushfq reads everything and stores
		return fAll, 0, true
	case op == 0x9D: // popfq redefines everything, but pops first
		return 0, fAll, true
	case op >= 0xB8 && op <= 0xBF: // mov r, imm
		return 0, 0, false
	case liftedShift(inst, mem): // the record copies the AF before it
		if shiftCount(inst) == 0 {
			return 0, 0, false
		}
		return fAF, fAll &^ fAF, false
	case op == 0xC2 || op == 0xC3 || op == 0xE8: // ret pops, call pushes
		return 0, 0, true
	case op == 0xE9 || op == 0xEB: // jmp
		return 0, 0, false
	case op == 0xF7 && sub == 2 && !mem: // not r: no flags
		return 0, 0, false
	case op == 0xFF && sub == 4 && !mem: // jmp r
		return 0, 0, false
	}
	return fAll, 0, true // call r (a store) and anything unlifted: fallback
}

// comp is the per-block compile context.
type comp struct {
	e     *irEngine
	b     *block
	elide []bool // flag computation provably dead for insts[i]

	// cost and unrun are staticCost of each instruction; opLast[k] is
	// the index of the last instruction op k retires, and opFault[k]
	// what a fault at op k leaves uncharged.
	cost, unrun []tally
	opLast      []int
	opFault     []tally
	farDist     uint64 // the FarDistance far jumps are counted under

	// regs are the bound machine's registers, which micro-ops address
	// directly; sink is the engine's result sink (state.sink).
	regs *[16]uint64
	sink *uint64
}

// newComp returns the compile context of b for machine m: liveness
// analysed and every instruction's static cost counted.
func newComp(e *irEngine, m *Machine, b *block) *comp {
	n := len(b.insts)
	c := &comp{e: e, b: b, regs: &m.Regs, sink: &e.st.sink, farDist: m.Cost.FarDistance,
		cost: make([]tally, n), unrun: make([]tally, n)}
	c.analyzeFlags()
	for i := range b.insts {
		c.cost[i], c.unrun[i] = staticCost(&b.insts[i], c.farDist)
	}
	return c
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

// reg is the address of register r, which micro-ops read and write.
func (c *comp) reg(r x86.Reg) *uint64 { return &c.regs[r] }

// src is the address a micro-op reads a register or immediate source
// operand through: the register's slot, or a copy of imm made for it.
func (c *comp) src(o operand, imm uint64) *uint64 {
	if o.imm {
		p := new(uint64)
		*p = imm
		return p
	}
	return c.reg(o.reg)
}

// zeroWord is what an absent address component reads.
var zeroWord uint64

// addrCalc is a memory operand's effective address as the lift
// resolved it: *base + *idx << shift + k. An absent component reads
// zeroWord, and a RIP-relative address is all k, so computing the
// address takes no branch and no call.
type addrCalc struct {
	base, idx *uint64
	shift     uint8
	k         uint64
}

// at is the address under the current register values.
func (a *addrCalc) at() uint64 { return *a.base + *a.idx<<a.shift + a.k }

// eaFor resolves a memory operand's effective address.
func (c *comp) eaFor(inst *x86.Inst) addrCalc {
	a := addrCalc{base: &zeroWord, idx: &zeroWord, k: uint64(inst.Disp())}
	if inst.RIPRel {
		a.k += inst.Addr + uint64(inst.Len)
		return a
	}
	if inst.MemBase != x86.NoReg && inst.MemBase != x86.RIP {
		a.base = c.reg(inst.MemBase)
	}
	if inst.MemIndex != x86.NoReg {
		a.idx, a.shift = c.reg(inst.MemIndex), uint8(bits.TrailingZeros8(inst.MemScale))
	}
	return a
}

// aluExec performs classic ALU op 0-7 (add/or/adc/sbb/and/sub/xor/cmp)
// on pre-masked operands and returns the masked result (0 for cmp,
// which stores nothing). f is the record of the flags before it over
// the architectural flags, from which adc and sbb take their carry in;
// unless the liveness pass elided it (rec), the op's own record
// replaces it. The interpreter, the lifted memory forms and adc/sbb
// compute through it; the register forms have one op each (aluReg).
func aluExec(f *flagRec, flags uint64, op byte, a, b uint64, mask uint64, w uint8, rec bool) uint64 {
	switch op {
	case 0: // add
		if rec {
			f.arith(kAdd, w, a, b)
		}
		return (a + b) & mask
	case 1: // or
		res := a | b
		if rec {
			f.logic(w, res)
		}
		return res
	case 2: // adc
		cin := f.cf(flags)
		if rec {
			*f = flagRec{kind: kAdd, w: w, a: a, b: b, cin: cin}
		}
		return (a + b + cin) & mask
	case 3: // sbb
		cin := f.cf(flags)
		if rec {
			*f = flagRec{kind: kSub, w: w, a: a, b: b, cin: cin}
		}
		return (a - b - cin) & mask
	case 4: // and
		res := a & b
		if rec {
			f.logic(w, res)
		}
		return res
	case 5: // sub
		if rec {
			f.arith(kSub, w, a, b)
		}
		return (a - b) & mask
	case 6: // xor
		res := a ^ b
		if rec {
			f.logic(w, res)
		}
		return res
	default: // cmp
		if rec {
			f.arith(kSub, w, a, b)
		}
		return 0
	}
}

// shift is shift group member sub (rol, ror, shl/sal, shr, sar: every
// one but rcl/rcr) of the pre-masked w-byte v by count >= 1. When rec
// is set, its record replaces f, the record of the flags before it over
// the architectural flags. Machine.execShift and the lifted shifts both
// compute through it.
func shift(f *flagRec, flags uint64, sub byte, v, count uint64, w int, rec bool) uint64 {
	bitsW := uint(8 * w)
	var res, cf uint64
	switch sub {
	case 4, 6: // shl/sal
		res = v << count
		cf = (v >> (bitsW - uint(count))) & 1
	case 5: // shr
		res = v >> count
		cf = (v >> (uint(count) - 1)) & 1
	case 7: // sar
		sh := uint(64 - bitsW)
		sv := int64(v<<sh) >> sh
		res = uint64(sv >> count)
		cf = uint64(sv>>(count-1)) & 1
	case 0: // rol, by the count modulo the width
		n := uint(count) % bitsW
		res = v<<n | v>>(bitsW-n)
		cf = res & 1
	default: // 1: ror
		n := uint(count) % bitsW
		res = v>>n | v<<(bitsW-n)
		cf = (res >> (bitsW - 1)) & 1
	}
	res &= maskFor(w)
	if rec {
		// OF is defined for a count of 1 only, and 0 for any other.
		var of uint64
		if count == 1 {
			switch sub {
			case 4, 6, 0: // shl/sal, rol: the top bit changed
				of = res>>(bitsW-1)&1 ^ cf
			case 5: // shr: the operand's top bit
				of = v >> (bitsW - 1) & 1
			case 1: // ror: the top two bits differ
				of = (res>>(bitsW-1) ^ res>>(bitsW-2)) & 1
			}
		}
		if sub <= 1 { // rol, ror write CF and OF only
			f.setCO(flags, cf, of)
			return res
		}
		af := f.af(flags)
		*f = flagRec{kind: kShift, w: uint8(w), res: res, aux: uint16(cf | af<<4 | of<<11)}
	}
	return res
}

// byWidth picks the instantiation of a width-generic lift for an
// operand width of w bytes.
func byWidth[F any](w int, f1, f2, f4, f8 F) F {
	switch w {
	case 1:
		return f1
	case 2:
		return f2
	case 4:
		return f4
	}
	return f8
}

// hop reports whether insts[i] is a followed jmp: a direct jmp that is
// not the block's last instruction, which lifts to no micro-op (its
// branch is in the block's static charge).
func (c *comp) hop(i int) bool {
	inst := &c.b.insts[i]
	return i < len(c.b.insts)-1 && followed(inst) && inst.Opcode != 0xE8
}

// fusedAt returns the index of the instruction that fuses with the
// block's final jcc (fusable), reached through any number of followed
// jmps, or -1.
func (c *comp) fusedAt() int {
	n := len(c.b.insts)
	i := n - 2
	for i >= 0 && c.hop(i) {
		i--
	}
	if i < 0 || !fusable(&c.b.insts[i], &c.b.insts[n-1]) {
		return -1
	}
	return i
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

	c := newComp(e, m, b)
	fused := c.fusedAt()
	b.ops = make([]uop, 0, n+1)
	for i := 0; i < n; i++ {
		switch {
		case i == fused: // cannot fault
			c.add(c.emitFused(i), n-1, tally{})
			i = n
		case c.hop(i):
		default:
			if op := c.emit(i); op != nil {
				c.add(op, i, c.unrun[i])
			}
		}
	}
	if last.Attrs&termAttrs == 0 {
		// The block falls off its end (size cap or decode failure
		// ahead): an epilogue op materializes the fallthrough RIP.
		c.add(func(s *state) bool {
			s.m.RIP = end
			return done
		}, n-1, tally{})
	}
	c.account()

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

// add appends op, which retires the instructions up to insts[last]
// and leaves fault uncharged when it faults.
func (c *comp) add(op uop, last int, fault tally) {
	c.b.ops = append(c.b.ops, op)
	c.opLast = append(c.opLast, last)
	c.opFault = append(c.opFault, fault)
}

// account fills the block's static charge and its exit tables from
// the instructions' static costs.
func (c *comp) account() {
	b := c.b
	after := make([]tally, len(b.insts)+1) // after[i]: insts[i:]
	for i := len(b.insts) - 1; i >= 0; i-- {
		after[i] = after[i+1]
		after[i].add(c.cost[i])
	}
	b.cost = after[0]
	b.left = make([]tally, len(b.ops))
	for k, last := range c.opLast {
		b.left[k] = after[last+1]
	}
	b.fault = c.opFault
}

// emitFallback produces the interpreter-fallback micro-op: it
// materializes the flags and runs the interpreter's Machine.exec, so
// every instruction outside the lift set (int3, hlt, ud2, div, and
// whatever no workload runs) keeps exact interpreter behaviour. Its
// staticCost is part of the block's charge, as any instruction's.
func (c *comp) emitFallback(i int) uop {
	c.e.Stats.Fallbacks++
	inst := &c.b.insts[i]
	nextAddr := inst.Addr + uint64(inst.Len)
	return func(s *state) bool {
		s.materialize()
		m := s.m
		rip, err := m.exec(inst, nextAddr)
		if err != nil {
			return s.fault(inst, err)
		}
		m.RIP = rip
		return !m.Halted() && !s.trk.flushed && rip == nextAddr
	}
}

// operand is an emitALU operand as the lift resolved it: a register,
// the instruction's immediate, or its memory operand.
type operand struct {
	reg      x86.Reg
	imm, mem bool
}

// emit lifts insts[i] into one micro-op, or nil when it has no effect
// to run (a cmp or test whose flags are dead).
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

	if highByte(inst) {
		return c.emitFallback(i)
	}
	if aluOp, write, dst, src, ok := aluForm(inst); ok {
		return c.emitALU(i, aluOp, write, dst, src)
	}
	if cc, ok := jccCond(inst); ok {
		return jccOp(cc, c.target(inst))
	}
	if inst.TwoByte {
		if op == 0xAF && !mem { // imul r, r
			return c.emitImul(inst, 0, false, rec)
		}
		return c.emitFallback(i) // ud2 and anything unlifted
	}

	switch {
	case op >= 0x50 && op <= 0x57, op == 0x68: // push r, push imm32 (an
		// epilogue's copy of a call pushes the return address)
		src := c.src(operand{reg: x86.Reg(op&7 | (inst.Rex&1)<<3), imm: op == 0x68}, uint64(inst.Imm()))
		return func(s *state) bool {
			s.push(*src)
			if s.trk.flushed {
				s.m.RIP = nextAddr
				return done
			}
			return true
		}

	case op >= 0x58 && op <= 0x5F: // pop r
		d := c.reg(x86.Reg(op&7 | (inst.Rex&1)<<3))
		return func(s *state) bool {
			v, err := s.pop()
			if err != nil {
				return s.fault(inst, err)
			}
			*d = v
			return true
		}

	case (op == 0x69 || op == 0x6B) && !mem: // imul r, r, imm
		return c.emitImul(inst, uint64(inst.Imm()), true, rec)

	case op >= 0x88 && op <= 0x8B: // mov r/m, r (88/89); mov r, r/m (8A/8B)
		w := pairWidth(inst)
		dst, src := rm.reg, reg.reg
		if op >= 0x8A {
			dst, src = src, dst
		}
		if !mem {
			return byWidth(w, movReg[uint8], movReg[uint16], movReg[uint32], movReg[uint64])(c.reg(dst), c.reg(src))
		}
		ea := c.eaFor(inst)
		if op < 0x8A {
			return byWidth(w, movStore[uint8], movStore[uint16], movStore[uint32], movStore[uint64])(ea, c.reg(src), nextAddr)
		}
		return byWidth(w, movLoad[uint8], movLoad[uint16], movLoad[uint32], movLoad[uint64])(ea, c.reg(dst), inst)

	case op == 0x8D: // lea
		return byWidth(width(inst), lea[uint8], lea[uint16], lea[uint32], lea[uint64])(c.eaFor(inst), c.reg(reg.reg))

	case op == 0x9C: // pushfq
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
		return func(s *state) bool {
			v, err := s.pop()
			if err != nil {
				return s.fault(inst, err)
			}
			s.m.Flags = v | flagsAlways
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
		return byWidth(w, movImm[uint8], movImm[uint16], movImm[uint32], movImm[uint64])(c.reg(r), v)

	case liftedShift(inst, mem): // shl or shr r, imm
		w, d, count := pairWidth(inst), c.reg(rm.reg), shiftCount(inst)
		switch {
		case rec && count != 0:
			return byWidth(w, shiftRec[uint8], shiftRec[uint16], shiftRec[uint32], shiftRec[uint64])(d, sub, count)
		case sub == 5:
			return byWidth(w, shrImm[uint8], shrImm[uint16], shrImm[uint32], shrImm[uint64])(d, count)
		}
		return byWidth(w, shlImm[uint8], shlImm[uint16], shlImm[uint32], shlImm[uint64])(d, count)

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
			m.RIP = m.branch(nextAddr, ret)
			return done
		}

	case op == 0xE8: // call rel32
		target := inst.Target()
		if i < len(c.b.insts)-1 { // followed: the callee runs on in this block
			return func(s *state) bool {
				s.push(nextAddr)
				if s.trk.flushed {
					s.m.RIP = target
					return done
				}
				return true
			}
		}
		return func(s *state) bool {
			s.push(nextAddr)
			s.m.RIP = target
			return done
		}

	case op == 0xE9 || op == 0xEB: // jmp rel, not followed (a followed one has no op)
		target := inst.Target()
		return func(s *state) bool {
			s.m.RIP = target
			return done
		}

	case op == 0xF7 && sub == 2 && !mem: // not r
		return byWidth(width(inst), notReg[uint8], notReg[uint16], notReg[uint32], notReg[uint64])(c.reg(rm.reg))

	case op == 0xFF && sub == 2 && !mem: // call r
		r := c.reg(rm.reg)
		return func(s *state) bool {
			t := *r
			s.push(nextAddr)
			s.m.RIP = s.m.branch(nextAddr, t)
			return done
		}

	case op == 0xFF && sub == 4 && !mem: // jmp r
		r := c.reg(rm.reg)
		return func(s *state) bool {
			s.m.RIP = s.m.branch(nextAddr, *r)
			return done
		}
	}

	return c.emitFallback(i)
}

// target is the conditional branch inst as the lift resolves it.
func (c *comp) target(inst *x86.Inst) jccTarget {
	return jccTarget{next: inst.Addr + uint64(inst.Len), target: inst.Target(), far: farHop(inst, c.farDist) != 0}
}

// movReg lifts mov r, r.
func movReg[T word](d, src *uint64) uop {
	return func(*state) bool {
		put(d, T(*src))
		return true
	}
}

// movImm lifts mov r, imm.
func movImm[T word](d *uint64, v uint64) uop {
	return func(*state) bool {
		put(d, T(v))
		return true
	}
}

// movLoad lifts mov r, [m].
func movLoad[T word](ea addrCalc, d *uint64, inst *x86.Inst) uop {
	return func(s *state) bool {
		v, err := load[T](s, ea.at())
		if err != nil {
			return s.fault(inst, err)
		}
		put(d, v)
		return true
	}
}

// movStore lifts mov [m], r. A store into translated code leaves the
// block after the instruction.
func movStore[T word](ea addrCalc, src *uint64, next uint64) uop {
	return func(s *state) bool {
		store(s, ea.at(), T(*src))
		if s.trk.flushed {
			s.m.RIP = next
			return done
		}
		return true
	}
}

// lea lifts lea r, [m].
func lea[T word](ea addrCalc, d *uint64) uop {
	return func(*state) bool {
		put(d, T(ea.at()))
		return true
	}
}

// notReg lifts not r.
func notReg[T word](d *uint64) uop {
	return func(*state) bool {
		put(d, ^T(*d))
		return true
	}
}

// shlImm and shrImm lift a shift left or right by a constant whose
// flags are dead or, by 0, untouched.
func shlImm[T word](d *uint64, n uint64) uop {
	return func(*state) bool {
		put(d, T(*d)<<n)
		return true
	}
}

func shrImm[T word](d *uint64, n uint64) uop {
	return func(*state) bool {
		put(d, T(*d)>>n)
		return true
	}
}

// shiftRec lifts shl or shr (sub) by a nonzero constant n whose flags
// are live, through shift.
func shiftRec[T word](d *uint64, sub byte, n uint64) uop {
	w := size[T]()
	return func(s *state) bool {
		put(d, T(shift(&s.fl, s.m.Flags, sub, uint64(T(*d)), n, w, true)))
		return true
	}
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

// fusable reports whether first and the conditional branch jcc that
// ends the block lift as one micro-op (emitFused): first is a sub, cmp,
// and or test with register and immediate operands only, so it cannot
// fault, flush or otherwise leave the block, and the pair (with any
// followed jmps between, which cannot leave it either) retires whole.
// TestFusedPairsCannotLeaveEarly holds this to flagEffects.
func fusable(first, jcc *x86.Inst) bool {
	aluOp, _, dst, src, ok := aluForm(first)
	_, isJcc := jccCond(jcc)
	return ok && isJcc && (aluOp == 4 || aluOp == 5 || aluOp == 7) && !dst.mem && !src.mem && !highByte(first)
}

// emitFused lifts insts[i], which fusedAt accepted, and the block's
// final jcc into one micro-op: the ALU op records its flags as emitALU's
// would (they are live at the block end), and the branch reads its
// condition straight off the operands.
func (c *comp) emitFused(i int) uop {
	inst, jcc := &c.b.insts[i], &c.b.insts[len(c.b.insts)-1]
	aluOp, write, dst, src, _ := aluForm(inst)
	cc, _ := jccCond(jcc)
	j := c.target(jcc)
	w := pairWidth(inst)
	x, y, out := c.reg(dst.reg), c.src(src, uint64(inst.Imm())), c.sink
	if write {
		out = x
	}
	if aluOp == 4 { // and, test
		return byWidth(w, andJcc[uint8], andJcc[uint16], andJcc[uint32], andJcc[uint64])(x, y, out, cc, j)
	}
	return byWidth(w, subJcc[uint8], subJcc[uint16], subJcc[uint32], subJcc[uint64])(x, y, out, cc, j) // sub, cmp
}

// jccTarget is a conditional branch as the lift resolved it: its
// fallthrough, its target, and whether taking it is a far jump under
// the FarDistance the block was lifted for.
type jccTarget struct {
	next, target uint64
	far          bool
}

// exit leaves the block through the branch: to target, charged as a
// taken (and perhaps far) branch, or on to next.
func (j *jccTarget) exit(m *Machine, taken bool) bool {
	if !taken {
		m.RIP = j.next
		return done
	}
	m.Counters.taken(&m.Cost, j.far)
	m.RIP = j.target
	return done
}

// subJcc fuses a sub or cmp of *x and *y (the result goes to out: x,
// or the sink for cmp) with a jcc on cc. The condition is chosen here:
// ZF is a == b, CF and the unsigned orders are a < b and a <= b, and
// the signed orders are the same compares on sign-adjusted operands
// (a^k against b^k with k the sign bit), each with the negation of an
// odd condition folded in; OF, SF and PF go through subCond.
func subJcc[T word](x, y, out *uint64, cc x86.Cond, j jccTarget) uop {
	w := uint8(size[T]())
	neg := cc&1 == 1
	var k T
	switch cc &^ 1 {
	case x86.CondE:
		return func(s *state) bool {
			a, b := T(*x), T(*y)
			s.fl.arith(kSub, w, uint64(a), uint64(b))
			put(out, a-b)
			return j.exit(s.m, (a == b) != neg)
		}
	case x86.CondL:
		k = signBit[T]()
		fallthrough
	case x86.CondB:
		return func(s *state) bool {
			a, b := T(*x), T(*y)
			s.fl.arith(kSub, w, uint64(a), uint64(b))
			put(out, a-b)
			return j.exit(s.m, (a^k < b^k) != neg)
		}
	case x86.CondLE:
		k = signBit[T]()
		fallthrough
	case x86.CondBE:
		return func(s *state) bool {
			a, b := T(*x), T(*y)
			s.fl.arith(kSub, w, uint64(a), uint64(b))
			put(out, a-b)
			return j.exit(s.m, (a^k <= b^k) != neg)
		}
	}
	return func(s *state) bool {
		a, b := T(*x), T(*y)
		s.fl.arith(kSub, w, uint64(a), uint64(b))
		put(out, a-b)
		return j.exit(s.m, subCond(cc, uint64(a), uint64(b), w))
	}
}

// andJcc fuses an and or test of *x and *y (the result goes to out)
// with a jcc on cc. With CF = OF = 0 every condition but parity is one
// unsigned compare of the result, res^k <= lim, chosen here: ZF is res
// <= 0, SF and the signed less-than are res >= the sign bit, the signed
// less-or-equal is res^sb <= sb, and CF and OF are never set.
func andJcc[T word](x, y, out *uint64, cc x86.Cond, j jccTarget) uop {
	w := uint8(size[T]())
	neg := cc&1 == 1
	sb := signBit[T]()
	var k, lim T
	switch cc &^ 1 {
	case x86.CondE, x86.CondBE: // res == 0
	case x86.CondS, x86.CondL: // not res <= sb-1
		lim, neg = sb-1, !neg
	case x86.CondLE: // res == 0 or negative
		k, lim = sb, sb
	case x86.CondB, x86.CondO: // never
		lim, neg = ^T(0), !neg
	default: // parity
		return func(s *state) bool {
			res := T(*x) & T(*y)
			s.fl.logic(w, uint64(res))
			put(out, res)
			return j.exit(s.m, logicCond(cc, uint64(res), w))
		}
	}
	return func(s *state) bool {
		res := T(*x) & T(*y)
		s.fl.logic(w, uint64(res))
		put(out, res)
		return j.exit(s.m, (res^k <= lim) != neg)
	}
}

// subCond is the condition cc of the record a - b (no borrow in) on
// pre-masked w-byte operands, computed from the operands.
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

// logicCond is the condition cc of a logic record (CF = OF = 0) with
// masked result res.
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

// jccOp lifts a conditional branch on cc that reads the deferred flag
// record: the condition's test (conds) is chosen here, and it derives
// each flag it reads on demand (lazy.go).
func jccOp(cc x86.Cond, j jccTarget) uop {
	test, neg := conds[cc>>1], cc&1 == 1
	return func(s *state) bool { return j.exit(s.m, test(&s.fl, s.m.Flags) != neg) }
}

// emitALU lifts every ALU-shaped instruction (aluForm) as dst = dst op
// src. A register destination with a register or immediate source is
// one aluReg op, or none for a cmp or test whose flags are dead; the
// memory forms load and store one fixed width and compute through
// aluExec. write is false for cmp and test.
func (c *comp) emitALU(i int, aluOp byte, write bool, dst, src operand) uop {
	inst := &c.b.insts[i]
	nextAddr := inst.Addr + uint64(inst.Len)
	rec := !c.elide[i]
	w := pairWidth(inst)
	y := c.src(src, uint64(inst.Imm()))
	if dst.mem {
		return byWidth(w, aluStore[uint8], aluStore[uint16], aluStore[uint32], aluStore[uint64])(
			aluOp, write, rec, c.eaFor(inst), y, inst, nextAddr)
	}
	x, out := c.reg(dst.reg), c.sink
	if write {
		out = x
	}
	switch {
	case src.mem:
		return byWidth(w, aluLoad[uint8], aluLoad[uint16], aluLoad[uint32], aluLoad[uint64])(
			aluOp, rec, c.eaFor(inst), x, out, inst)
	case !write && !rec:
		return nil // cmp or test with dead flags: nothing to run
	}
	return byWidth(w, aluReg[uint8], aluReg[uint16], aluReg[uint32], aluReg[uint64])(aluOp, rec, x, y, out)
}

// aluReg lifts an ALU op on *x and *y (a register, or the copy of an
// immediate) into out (x, or the sink for cmp and test), with the flag
// record (rec) or without it: add, and and xor each have an op of their
// own in both forms, and sub and cmp without the record; the rest go
// through aluExec.
func aluReg[T word](aluOp byte, rec bool, x, y, out *uint64) uop {
	w := uint8(size[T]())
	switch {
	case aluOp == 0 && rec: // add
		return func(s *state) bool {
			a, b := T(*x), T(*y)
			s.fl.arith(kAdd, w, uint64(a), uint64(b))
			put(out, a+b)
			return true
		}
	case aluOp == 0:
		return func(*state) bool {
			put(out, T(*x)+T(*y))
			return true
		}
	case (aluOp == 5 || aluOp == 7) && !rec: // sub, cmp
		return func(*state) bool {
			put(out, T(*x)-T(*y))
			return true
		}
	case aluOp == 4 && rec: // and, test
		return func(s *state) bool {
			res := T(*x) & T(*y)
			s.fl.logic(w, uint64(res))
			put(out, res)
			return true
		}
	case aluOp == 4:
		return func(*state) bool {
			put(out, T(*x)&T(*y))
			return true
		}
	case aluOp == 6 && rec: // xor
		return func(s *state) bool {
			res := T(*x) ^ T(*y)
			s.fl.logic(w, uint64(res))
			put(out, res)
			return true
		}
	case aluOp == 6:
		return func(*state) bool {
			put(out, T(*x)^T(*y))
			return true
		}
	}
	mask := uint64(^T(0))
	return func(s *state) bool {
		put(out, T(aluExec(&s.fl, s.m.Flags, aluOp, uint64(T(*x)), uint64(T(*y)), mask, w, rec)))
		return true
	}
}

// aluLoad lifts op r, [m]: *x op [m] into out (x, or the sink for
// cmp).
func aluLoad[T word](aluOp byte, rec bool, ea addrCalc, x, out *uint64, inst *x86.Inst) uop {
	w, mask := uint8(size[T]()), uint64(^T(0))
	return func(s *state) bool {
		v, err := load[T](s, ea.at())
		if err != nil {
			return s.fault(inst, err)
		}
		put(out, T(aluExec(&s.fl, s.m.Flags, aluOp, uint64(T(*x)), uint64(v), mask, w, rec)))
		return true
	}
}

// aluStore lifts op [m], r and op [m], imm: the load, and for every op
// but cmp and test the store, which may leave the block.
func aluStore[T word](aluOp byte, write, rec bool, ea addrCalc, y *uint64, inst *x86.Inst, next uint64) uop {
	w, mask := uint8(size[T]()), uint64(^T(0))
	return func(s *state) bool {
		addr := ea.at()
		a, err := load[T](s, addr)
		if err != nil {
			return s.fault(inst, err)
		}
		res := T(aluExec(&s.fl, s.m.Flags, aluOp, uint64(a), uint64(T(*y)), mask, w, rec))
		if !write {
			return true
		}
		store(s, addr, res)
		if s.trk.flushed {
			s.m.RIP = next
			return done
		}
		return true
	}
}

// emitImul lifts the two-operand (and immediate) imul forms with a
// register r/m operand: the product of the destination (or, with an
// immediate, the r/m register) and the r/m register (or the
// immediate), both at the instruction's width.
func (c *comp) emitImul(inst *x86.Inst, imm uint64, hasImm, rec bool) uop {
	d := c.reg(modrmReg(inst))
	other := d // the factor beside the r/m operand
	if hasImm {
		other = c.src(operand{imm: true}, imm)
	}
	return byWidth(width(inst), imulReg[uint8], imulReg[uint16], imulReg[uint32], imulReg[uint64])(d, c.reg(modrmRM(inst)), other, rec)
}

// imul is the signed product of the T-wide a and b, truncated to T.
// When rec is set, its record replaces f, the record of the flags
// before it over the architectural flags. The interpreter picks its
// width with byWidth at run time.
func imul[T word](f *flagRec, flags, a, b uint64, rec bool) uint64 {
	sw := 64 - 8*uint(size[T]())
	prod := int64(a<<sw) >> sw * (int64(b<<sw) >> sw)
	res := uint64(T(prod))
	if rec {
		over := int64(res<<sw)>>sw != prod
		if sw == 0 { // the int64 product itself wraps: compare the 128-bit one
			hi, lo := smul128(a, b)
			over = hi != uint64(int64(lo)>>63)
		}
		var cf uint64
		if over {
			cf = 1
		}
		af := f.af(flags)
		*f = flagRec{kind: kImul, w: uint8(size[T]()), res: res, aux: uint16(cf | af<<4 | cf<<11)}
	}
	return res
}

// smul128 is the signed 128-bit product of a and b, as its high and low
// words.
func smul128(a, b uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	return hi - a&uint64(int64(b)>>63) - b&uint64(int64(a)>>63), lo
}

// imulReg lifts imul with a register r/m operand: d = *x * *y.
func imulReg[T word](d, x, y *uint64, rec bool) uop {
	return func(s *state) bool {
		put(d, T(imul[T](&s.fl, s.m.Flags, uint64(T(*x)), uint64(T(*y)), rec)))
		return true
	}
}
