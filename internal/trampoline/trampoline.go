// Package trampoline compiles trampoline templates into concrete
// machine code. A trampoline implements a patch or instrumentation for
// one displaced instruction: it runs the instrumentation payload,
// executes (or emulates) the displaced instruction, and returns control
// flow to the instruction's original successor.
//
// Templates are sized before placement (the allocator needs the size to
// find a slot inside a punned target window) and then emitted at the
// chosen address; both steps are deterministic.
package trampoline

import (
	"fmt"

	"e9patch/internal/x86"
)

// Template produces trampoline code for a displaced instruction.
//
// AppendCode appends the trampoline for inst, placed at address at, to
// dst and returns the extended slice. Its length must not depend on at:
// the patcher assembles every trampoline into its code slab and sizes a
// template by assembling it at inst's own address.
//
// Every template but Raw ends its code with EmitDisplaced for inst, so
// the trampoline of an instruction that falls through or is a jcc ends
// in a jmp rel32 to inst's successor. The patcher replaces that jump
// with an epilogue; a Raw trampoline, whose body is the caller's code,
// is left as emitted.
type Template interface {
	AppendCode(dst []byte, inst *x86.Inst, at uint64) ([]byte, error)
}

// Empty is the paper's "empty" instrumentation: the trampoline merely
// executes/emulates the displaced instruction and jumps back. It is
// also the evictee trampoline of tactics T2 and T3, always: running an
// evictee trampoline is running its victim, nothing more.
type Empty struct{}

// AppendCode implements Template.
func (Empty) AppendCode(dst []byte, inst *x86.Inst, at uint64) ([]byte, error) {
	a := x86.AppendAsm(dst, at)
	if err := EmitDisplaced(&a, inst); err != nil {
		return nil, err
	}
	return a.Finish()
}

// Counter increments a 64-bit in-memory counter before executing the
// displaced instruction (the shape of basic-block/branch counting
// instrumentation).
type Counter struct {
	// Addr is the virtual address of the 8-byte counter.
	Addr uint64
	// Scratch is the register saved to hold the counter address
	// (defaults to RAX; must not appear in the displaced operand).
	Scratch x86.Reg
}

// AppendCode implements Template.
func (c Counter) AppendCode(dst []byte, inst *x86.Inst, at uint64) ([]byte, error) {
	s := c.Scratch
	if s == x86.NoReg || s == 0 {
		regs, ok := PickScratch(inst, 1)
		if !ok {
			return nil, fmt.Errorf("trampoline: no scratch register free for % x", inst.Bytes)
		}
		s = regs[0]
	}
	a := x86.AppendAsm(dst, at)
	a.PushReg(s)
	a.Pushfq()
	a.MovRegImm64(s, c.Addr)
	a.AddMemImm8x64(x86.M(s, 0), 1)
	a.Popfq()
	a.PopReg(s)
	if err := EmitDisplaced(&a, inst); err != nil {
		return nil, err
	}
	return a.Finish()
}

// ContextCall is the general instrumentation shape: the trampoline
// saves the full general-purpose register context and flags, calls an
// instrumentation function with the patched instruction's address in
// rdi (SysV convention), restores everything, executes the displaced
// instruction, and returns. This is how higher-level tooling layers
// arbitrary analyses over the rewriter.
type ContextCall struct {
	// Fn is the absolute address of the instrumentation routine
	// (typically an emulator runtime binding).
	Fn uint64
}

// contextRegs are the saved registers, in push order (rsp excluded:
// the stack itself carries the context).
var contextRegs = []x86.Reg{
	x86.RAX, x86.RCX, x86.RDX, x86.RBX, x86.RBP, x86.RSI, x86.RDI,
	x86.R8, x86.R9, x86.R10, x86.R11, x86.R12, x86.R13, x86.R14, x86.R15,
}

// addrArg is ContextCall's one argument.
var addrArg = []Arg{{Kind: ArgAddr}}

// AppendCode implements Template: the code is Call's, of Fn with the
// instruction's address.
func (c ContextCall) AppendCode(dst []byte, inst *x86.Inst, at uint64) ([]byte, error) {
	call := Call{Fn: c.Fn, Args: addrArg}
	return call.AppendCode(dst, inst, at)
}

// Raw emits fixed code followed by a jump to an explicit continuation
// address. It implements arbitrary binary patches (Example 3.1): the
// displaced instruction is *not* automatically re-executed; the Code
// callback decides what the patch does.
type Raw struct {
	// Code assembles the patch body. The displaced instruction and
	// the resume address (its original successor) are provided.
	Code func(a *x86.Asm, inst *x86.Inst, resume uint64) error
}

// AppendCode implements Template.
func (r Raw) AppendCode(dst []byte, inst *x86.Inst, at uint64) ([]byte, error) {
	a := x86.AppendAsm(dst, at)
	if err := r.Code(&a, inst, inst.Addr+uint64(inst.Len)); err != nil {
		return nil, err
	}
	return a.Finish()
}

// PickScratch returns n distinct general-purpose registers that do not
// appear in inst's memory operand (so a lea of the operand computed in
// them is safe before the displaced instruction reads its own
// registers — the scratch registers are restored first). ok is false
// when the pool cannot supply n registers; templates turn that into an
// emit error so the tactic simply fails for that location instead of
// crashing the rewrite.
func PickScratch(inst *x86.Inst, n int) ([]x86.Reg, bool) {
	pool := []x86.Reg{x86.RAX, x86.RCX, x86.RDX, x86.RSI, x86.RDI, x86.R8, x86.R9, x86.R10, x86.R11}
	out := make([]x86.Reg, 0, n)
	for _, r := range pool {
		if r == inst.MemBase || r == inst.MemIndex {
			continue
		}
		out = append(out, r)
		if len(out) == n {
			return out, true
		}
	}
	return nil, false
}

// EmitDisplaced appends code that performs the displaced instruction's
// exact semantics at the trampoline location and continues at the
// instruction's original successor. Non-branch instructions are
// relocated and followed by a return jump; branches are emulated with
// explicit jump sequences (§2.1.2 of the paper). The patcher's
// epilogues end a trampoline on a copied control transfer with it.
func EmitDisplaced(a *x86.Asm, inst *x86.Inst) error {
	resume := inst.Addr + uint64(inst.Len)
	switch {
	case inst.IsJmp() && inst.RelSize != 0:
		// Direct jmp: re-target, no fall-through.
		a.JmpRel32(inst.Target())
		return a.Err()

	case inst.IsJcc() && inst.RelSize != 0:
		if !inst.TwoByte && (inst.Opcode&0xF0) == 0xE0 {
			return fmt.Errorf("trampoline: cannot emulate %#02x (loop/jrcxz)", inst.Opcode)
		}
		cc := x86.Cond(inst.Opcode & 0x0F)
		a.JccRel32(cc, inst.Target())
		a.JmpRel32(resume)
		return a.Err()

	case inst.IsCall() && inst.RelSize != 0:
		// Direct call: push the *original* return address so the
		// callee returns into unpatched code, then jump.
		emitPush64(a, resume)
		a.JmpRel32(inst.Target())
		return a.Err()

	case inst.IsCall(): // indirect call (FF /2)
		emitPush64(a, resume)
		return emitIndirectAsJmp(a, inst)

	case inst.IsJmp(): // indirect jmp (FF /4)
		a.Relocate(inst)
		return a.Err()

	case inst.IsRet() || inst.Attrs&x86.AttrStop != 0:
		// ret/ud2/hlt behave identically wherever they execute.
		a.Raw(inst.Bytes...)
		return a.Err()

	case inst.Attrs&x86.AttrInt3 != 0:
		a.Int3()
		return a.Err()

	default:
		a.Relocate(inst)
		a.JmpRel32(resume)
		return a.Err()
	}
}

// emitPush64 pushes a full 64-bit constant without clobbering any
// register: push imm32 (sign-extends) then patch the high dword.
func emitPush64(a *x86.Asm, v uint64) {
	lo := int32(uint32(v))
	hi := uint32(v >> 32)
	a.PushImm32(lo)
	// If sign extension already produced the right high half, the
	// store is unnecessary.
	var ext uint32
	if lo < 0 {
		ext = 0xFFFFFFFF
	}
	if ext != hi {
		a.MovMemImm32(x86.M(x86.RSP, 4), hi)
	}
}

// emitIndirectAsJmp rewrites an indirect call (FF /2) into the
// corresponding indirect jmp (FF /4) at the current position,
// relocating a RIP-relative operand if present.
func emitIndirectAsJmp(a *x86.Asm, inst *x86.Inst) error {
	// Locate the ModRM byte: prefixes, opcode, then ModRM. Relocation
	// changes a displacement at most, so the original bytes tell.
	mi := inst.NPrefix + 1
	if inst.TwoByte {
		mi++
	}
	if mi >= inst.Len || inst.Bytes[inst.NPrefix] != 0xFF {
		return fmt.Errorf("trampoline: unexpected indirect call encoding % x", inst.Bytes)
	}
	modrm := inst.Bytes[mi]
	if (modrm>>3)&7 != 2 {
		return fmt.Errorf("trampoline: not an FF /2 call: % x", inst.Bytes)
	}
	// RIP-relative operands are relocated against the *call*'s
	// placement; the jmp occupies the same bytes at the same spot, so
	// no further adjustment is needed (identical length).
	at := a.Len()
	a.Relocate(inst)
	if a.Err() == nil {
		a.Patch(at+mi, modrm&^(7<<3)|4<<3) // /2 -> /4
	}
	return a.Err()
}
