package emu

import "e9patch/internal/x86"

// The cycle model. Every cycle either engine charges is priced here:
// staticCost is the one definition of what an instruction costs by its
// encoding, counted as a tally and charged through Counters.charge —
// per instruction by the interpreter (execDecoded), per block by the
// ir engine — and taken back through Counters.refund where a fault or
// an early block exit leaves it unrun. Only what depends on run-time
// values is charged where it happens: a taken conditional or computed
// branch (Counters.taken), a runtime call (stepSpecial) and an int3's
// signal round trip (exec).

// CostModel assigns cycle weights to dynamic events. The defaults are
// calibrated so that the *shape* of the paper's overhead results holds;
// see DESIGN.md §1 for the substitution rationale.
type CostModel struct {
	// ALU is the base cost of any instruction.
	ALU uint64
	// Mem is the surcharge for each memory access.
	Mem uint64
	// BranchTaken is the surcharge for a taken near branch.
	BranchTaken uint64
	// FarJump is the surcharge for a taken branch whose target is more
	// than FarDistance away (trampoline hops: icache/BTB pressure).
	FarJump uint64
	// FarDistance is the near/far threshold in bytes.
	FarDistance uint64
	// CallRet is the surcharge for call and ret.
	CallRet uint64
	// Mul is the surcharge for multiplies and divides.
	Mul uint64
	// Signal is the cost of an int3 → SIGTRAP → handler round trip
	// (B0 patching).
	Signal uint64
	// Runtime is the flat cost of a runtime (libc-analogue) call.
	Runtime uint64
}

// DefaultCost returns the calibrated default cost model.
func DefaultCost() CostModel {
	return CostModel{
		ALU:         1,
		Mem:         1,
		BranchTaken: 1,
		FarJump:     5,
		FarDistance: 1 << 12,
		CallRet:     1,
		Mul:         2,
		Signal:      3000,
		Runtime:     40,
	}
}

// tally counts the cost events of instructions that are fixed by their
// encoding (staticCost): the instructions themselves, their Mem, Mul
// and CallRet surcharges, and the taken and far events of branches with
// a static target. It holds counts, not cycles, so a charge reads the
// machine's CostModel when it is made.
type tally struct {
	insts, mem, mul, callRet, taken, far uint16
}

// add adds u's events to t.
func (t *tally) add(u tally) {
	t.insts += u.insts
	t.mem += u.mem
	t.mul += u.mul
	t.callRet += u.callRet
	t.taken += u.taken
	t.far += u.far
}

// cycles prices t's events under k.
func (t *tally) cycles(k *CostModel) uint64 {
	return uint64(t.insts)*k.ALU + uint64(t.mem)*k.Mem + uint64(t.mul)*k.Mul +
		uint64(t.callRet)*k.CallRet + uint64(t.taken)*k.BranchTaken + uint64(t.far)*k.FarJump
}

// charge adds t's events and their cycles under k to c.
func (c *Counters) charge(t *tally, k *CostModel) {
	c.Instructions += uint64(t.insts)
	c.TakenBranches += uint64(t.taken)
	c.FarJumps += uint64(t.far)
	c.Cycles += t.cycles(k)
}

// refund takes t's events and their cycles under k back from c.
func (c *Counters) refund(t *tally, k *CostModel) {
	c.Instructions -= uint64(t.insts)
	c.TakenBranches -= uint64(t.taken)
	c.FarJumps -= uint64(t.far)
	c.Cycles -= t.cycles(k)
}

// taken charges a taken branch whose direction or target only the run
// decides — a conditional branch, a ret, an indirect jmp or call —
// under k; far marks a far jump. Both engines charge every such branch
// here.
func (c *Counters) taken(k *CostModel, far bool) {
	c.TakenBranches++
	c.Cycles += k.BranchTaken
	if far {
		c.FarJumps++
		c.Cycles += k.FarJump
	}
}

// branch charges the taken branch from the fallthrough address from to
// target, far when they lie more than FarDistance apart, and returns
// the target.
func (m *Machine) branch(from, target uint64) uint64 {
	m.Counters.taken(&m.Cost, isFar(from, target, m.Cost.FarDistance))
	return target
}

// isFar reports whether a branch from the fallthrough address from to
// target is a far jump under farDist.
func isFar(from, target, farDist uint64) bool {
	dist := target - from
	if int64(dist) < 0 {
		dist = -dist
	}
	return dist > farDist
}

// staticCost is what inst costs by its encoding alone: its base cost,
// its Mem, Mul and CallRet surcharges and, for a direct jmp or call,
// the taken branch and whether it is far under farDist. unrun is the
// part of t that a fault leaves unrun, which both engines take back
// when inst faults: what follows the access that can fault (an RMW's
// store, a pop's Mem, which is counted once the load succeeds). A
// conditional branch's direction and a ret's or indirect branch's
// distance are known only at run time and charged then (taken). Every
// opcode exec implements is priced here; anything else costs its base.
func staticCost(inst *x86.Inst, farDist uint64) (t, unrun tally) {
	t.insts = 1
	op := inst.Opcode
	sub := (inst.ModRM >> 3) & 7
	var mem uint16
	if inst.Attrs&x86.AttrModRM != 0 && !rmIsReg(inst) {
		mem = 1
	}
	if _, write, dst, _, ok := aluForm(inst); ok {
		t.mem = mem
		if write && dst.mem { // load, then store
			t.mem, unrun.mem = 2, 1
		}
		return t, unrun
	}
	if inst.TwoByte {
		switch {
		case op >= 0x40 && op <= 0x4F, op >= 0x90 && op <= 0x9F, op == 0xB6, op == 0xB7, op == 0xBE, op == 0xBF:
			t.mem = mem // cmovcc, setcc, movzx, movsx: one access
		case op == 0xAF: // imul r, r/m: the load, then Mul
			t.mem, t.mul, unrun.mul = mem, 1, 1
		}
		return t, unrun
	}
	switch {
	case op >= 0x50 && op <= 0x57, op == 0x68, op == 0x6A, op == 0x9C: // push r, push imm, pushfq
		t.mem = 1
	case op >= 0x58 && op <= 0x5F, op == 0x9D, op == 0xC9: // pop r, popfq, leave: the load faults before Mem
		t.mem, unrun.mem = 1, 1
	case op == 0x8F: // pop r/m: the pop, then the store
		t.mem, unrun.mem = 1+mem, 1+mem
	case op == 0x63, op >= 0x88 && op <= 0x8B, op == 0xC6, op == 0xC7: // movsxd, mov: one access
		t.mem = mem
	case op == 0x69 || op == 0x6B: // imul r, r/m, imm
		t.mem, t.mul, unrun.mul = mem, 1, 1
	case op == 0x86, op == 0x87, (op == 0xFE || op == 0xFF) && sub <= 1, // xchg r/m, inc, dec
		op == 0xC0, op == 0xC1, op >= 0xD0 && op <= 0xD3: // and the shifts: the load, then the store
		t.mem, unrun.mem = 2*mem, mem
	case op == 0xF6 || op == 0xF7: // group 3: the load, then
		t.mem = mem
		switch sub {
		case 2, 3: // not, neg: the store
			t.mem, unrun.mem = 2*mem, mem
		case 4, 5: // mul, imul: Mul
			t.mul, unrun.mul = 1, 1
		case 6, 7: // div, idiv: Mul, which a fault takes back after a memory
			// divisor, whose load may be what faulted
			t.mul, unrun.mul = 1, mem
		}
	case op == 0xC2 || op == 0xC3: // ret: the pop, then CallRet
		t.mem, t.callRet = 1, 1
		unrun.mem, unrun.callRet = 1, 1
	case op == 0xE8: // call rel32: push, CallRet, the branch
		t.mem, t.callRet = 1, 1
		t.taken, t.far = 1, farHop(inst, farDist)
	case op == 0xE9 || op == 0xEB: // jmp rel
		t.taken, t.far = 1, farHop(inst, farDist)
	case op == 0xFF && sub == 2: // call r/m: the load, push, CallRet
		t.mem, t.callRet = mem+1, 1
		unrun.mem, unrun.callRet = 1, 1
	case op == 0xFF && sub == 4: // jmp r/m
		t.mem = mem
	case op == 0xFF && sub == 6: // push r/m: the load, then the push
		t.mem, unrun.mem = mem+1, 1
	}
	return t, unrun
}

// farHop is 1 when the direct branch inst, taken, is a far jump under
// farDist.
func farHop(inst *x86.Inst, farDist uint64) uint16 {
	if isFar(inst.Addr+uint64(inst.Len), inst.Target(), farDist) {
		return 1
	}
	return 0
}
