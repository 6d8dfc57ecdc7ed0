package emu

import "e9patch/internal/x86"

// This file is the decoding/flag seam for engines that precompile
// instructions (internal/emu/ir). The flag helpers delegate to the
// interpreter's own implementations, so a lazily-deferred flag
// computation materialises bit-identically to what the interpreter
// would have produced at the same point — the conformance contract is
// structural, not re-implemented.

// Width returns the operand width in bytes implied by REX.W and the
// 0x66 prefix for a non-8-bit opcode.
func Width(inst *x86.Inst) int { return width(inst) }

// MaskFor returns the value mask for a w-byte operand.
func MaskFor(w int) uint64 { return maskFor(w) }

// ModRMReg returns the ModRM reg-field register (with REX.R).
func ModRMReg(inst *x86.Inst) x86.Reg { return modrmReg(inst) }

// ModRMRM returns the ModRM r/m-field register (mod == 3 only).
func ModRMRM(inst *x86.Inst) x86.Reg { return modrmRM(inst) }

// RMIsReg reports whether the r/m operand is a register.
func RMIsReg(inst *x86.Inst) bool { return rmIsReg(inst) }

// AddWithFlags computes a+b+cin updating all arithmetic flags,
// returning the masked result.
func (m *Machine) AddWithFlags(a, b, cin uint64, w int) uint64 { return m.addFlags(a, b, cin, w) }

// SubWithFlags computes a-b-cin updating all arithmetic flags,
// returning the masked result.
func (m *Machine) SubWithFlags(a, b, cin uint64, w int) uint64 { return m.subFlags(a, b, cin, w) }

// LogicFlags sets ZF/SF/PF from res and clears CF/OF/AF
// (and/or/xor/test semantics).
func (m *Machine) LogicFlags(res uint64, w int) { m.setLogicFlags(res, w) }

// ResultFlags sets ZF/SF/PF from res, leaving CF/OF/AF untouched.
func (m *Machine) ResultFlags(res uint64, w int) { m.setResultFlags(res, w) }

// SetFlagTo sets or clears one RFLAGS bit.
func (m *Machine) SetFlagTo(bit uint64, on bool) { m.setFlag(bit, on) }

// FlagBitOf returns 1 if the flag is set, else 0.
func (m *Machine) FlagBitOf(bit uint64) uint64 { return m.flagBit(bit) }

// EvalCond evaluates a condition code against the current RFLAGS.
func (m *Machine) EvalCond(cc x86.Cond) bool { return m.cond(cc) }
