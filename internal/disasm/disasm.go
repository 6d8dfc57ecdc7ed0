// Package disasm is the "basic wrapper frontend" from the paper: it
// recovers the instructions of a code section, and nothing else.
// E9Patch proper consumes only instruction locations and sizes; this
// package produces exactly that, and nothing control-flow related.
// Recover and RecoverCancel are its one entry point: every mode yields
// the same artefact, a universe of instructions in address order.
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
