// Package disasm is the "basic wrapper frontend" from the paper: it
// recovers the instructions of a code section and selects patch
// locations for the evaluation applications (A1: jump instructions,
// A2: heap-write instructions).
//
// E9Patch proper consumes only instruction locations and sizes; this
// package produces exactly that, and nothing control-flow related.
package disasm

import (
	"e9patch/internal/x86"
)

// Result is the outcome of instruction recovery.
type Result struct {
	// Insts are the recovered instructions in address order: their
	// locations, sizes and classes (see x86.Loc).
	Insts []x86.Loc
	// BadBytes counts bytes that did not decode (embedded data,
	// unsupported encodings); each is skipped individually, exactly
	// like a linear sweep over a .text section containing data.
	BadBytes int
}

// SelectJumps returns the indices of all jmp/jcc instructions: the
// paper's application A1 (a control-flow-free analogue of basic-block
// counting).
func SelectJumps(insts []x86.Loc) []int {
	var out []int
	for i := range insts {
		if in := &insts[i]; in.IsJmp() || in.IsJcc() {
			out = append(out, i)
		}
	}
	return out
}

// SelectHeapWrites returns the indices of all instructions that may
// write through a heap pointer (memory-destination operands excluding
// %rsp-based and %rip-relative): the paper's application A2. Only the
// instructions whose opcode writes its operand at all are decoded.
func SelectHeapWrites(insts []x86.Loc) []int {
	var out []int
	var inst x86.Inst
	for i := range insts {
		if !insts[i].MayWriteMem() {
			continue
		}
		if insts[i].DecodeInto(&inst); inst.IsHeapWrite() {
			out = append(out, i)
		}
	}
	return out
}

// SelectAll returns every instruction index (the stress case for the
// paper's limitation L3).
func SelectAll(insts []x86.Loc) []int {
	out := make([]int, len(insts))
	for i := range out {
		out[i] = i
	}
	return out
}
