package disasm

// CET-anchored superset pruning (after arXiv:2506.09426): on binaries
// compiled with control-flow enforcement, every indirect branch target
// starts with an endbr64 landing pad. Those pads are unforgeable code
// anchors — a compiler never emits the F3 0F 1E FA byte string inside
// another instruction's immediate by accident often enough to matter,
// and a misaligned decode that happens to produce one is pruned by the
// refinement first. Starting from the anchors (plus the section entry,
// which is a known-good boundary by construction), the genuine
// instruction stream is exactly the forward closure under fall-through
// and direct-branch edges: no control-flow *recovery* is needed, only
// the local successor relation the superset sweep already knows.

// cetPrune computes the anchor-reachable subset of the refined
// superset and records it in the table (keptAt): an instruction is
// kept if it is (a) valid under the closure refinement and (b)
// reachable from an endbr64 anchor or the section start by following
// fall-through and direct branch/call targets through valid
// instructions. anchors is the number of seed instructions used; ok is
// false when cancel closed first. keep counts the kept set per sweep
// shard (keptIn).
//
// The kept set is a subset of the refined valid set by construction;
// bytes it never covers (alignment padding, inter-function junk, data)
// are classified unreachable and excluded from patching.
func (r *supersetResult) cetPrune(cancel <-chan struct{}) (anchors int, ok bool) {
	var work []int
	r.keptIn = make([]int, r.sh.count)
	keep := func(off int) {
		if off >= 0 && r.validAt(off) && !r.keptAt(off) {
			r.flags[off] |= flagKept
			work = append(work, off)
			r.keptIn[r.sh.of(off)]++
		}
	}

	// Seeds: every valid endbr64, plus the instruction at the section
	// start (ELF entry or the first byte of .text, a genuine boundary
	// in either case).
	for off := range r.flags {
		r.flags[off] &^= flagKept
		if r.flags[off]&flagEndbr != 0 {
			keep(off)
		}
	}
	if len(r.flags) > 0 {
		keep(0)
	}
	anchors = len(work)

	// Forward closure over fall-through and direct-branch successors,
	// traversing valid instructions only: a chain that runs through a
	// refinement-invalid decode is junk even if an anchor points at it.
	for steps := 0; len(work) > 0; steps++ {
		if steps&(cancelStride-1) == 0 && stopped(cancel) {
			return 0, false
		}
		off := work[len(work)-1]
		work = work[:len(work)-1]
		keep(r.fallsTo(off))
		if r.flags[off]&flagDirect != 0 {
			keep(r.jumpsTo(off))
		}
	}
	return anchors, true
}
