// Package match holds what every patch-location selector shares: the
// View an instruction predicate tests, Select, which turns a predicate
// into a selector, and the registry of selectors that may be evaluated
// shard by shard. The E9Tool-style expression language that compiles to
// these predicates is internal/lang.
package match

import "e9patch/internal/x86"

// View is the instruction a predicate is testing: its universe record,
// and the full decode the first time a term asks for one. Terms over
// the class, the length and the address (jump, call, short, len>=5,
// addr=…) read the record and never decode; terms over the opcode or
// an operand (heapwrite, riprel, op=, mnemonic=) decode that one
// instruction.
type View struct {
	*x86.Loc
	inst    x86.Inst
	decoded bool
}

// Reset points the view at another instruction, which must stay
// unchanged while the view is on it.
func (v *View) Reset(l *x86.Loc) { v.Loc, v.decoded = l, false }

// Inst returns the full decode of the instruction under test.
func (v *View) Inst() *x86.Inst {
	if !v.decoded {
		v.Loc.DecodeInto(&v.inst)
		v.decoded = true
	}
	return &v.inst
}

// Predicate tests one instruction.
type Predicate func(v *View) bool

// Select converts a predicate into a patch-location selector. The
// selector tests one instruction at a time, so it is registered as
// shard-safe for parallel matching (predicates compiled by internal/lang
// are pure by construction; callers passing hand-written predicates
// must keep them stateless too).
func Select(pred Predicate) func(insts []x86.Loc) []int {
	sel := func(insts []x86.Loc) []int {
		var out []int
		var v View
		for i := range insts {
			if v.Reset(&insts[i]); pred(&v) {
				out = append(out, i)
			}
		}
		return out
	}
	RegisterShardable(sel)
	return sel
}
