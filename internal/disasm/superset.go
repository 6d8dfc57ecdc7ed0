package disasm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"e9patch/internal/work"
	"e9patch/internal/x86"
)

// Superset disassembly (Bauman et al., NDSS'18 — cited by the paper as
// an alternative frontend): decode at *every* byte offset and keep all
// valid instructions. Because E9Patch's patching is local and needs no
// control-flow facts, a superset frontend lets it patch binaries whose
// real instruction boundaries are unknown — the patcher simply receives
// more candidate locations, and the caller filters.
//
// This implementation also computes the classic refinement: an
// instruction "survives" if following fall-through and direct-branch
// successors never reaches an invalid decode inside the section. That
// prunes most of the byte-misaligned junk while keeping every true
// instruction (a superset of the real disassembly by construction).
//
// The sweep fills the per-offset table (table.go), with the attribute
// word x86.Shape returned at each offset, and one flag byte per section
// byte beside it: the refinement and the CET closure (cet.go) run over
// the arrays and count their survivors per sweep shard, and the offsets
// that survive become the universe with the attributes the sweep kept.

// Per-offset flags. The first six describe the decode and are written
// by the sweep; the last two are the results of the refinement and of
// the CET closure.
const (
	flagStop      uint8 = 1 << iota // never falls through
	flagRel8                        // ends in a 1-byte branch displacement
	flagRel32                       // ends in a 4-byte branch displacement
	flagDirect                      // direct jmp/jcc/call (x86.Inst.IsDirectBranch)
	flagEndbr                       // endbr64
	flagTruncated                   // no decode, but only because the section ended
	flagInvalid                     // refinement: must reach an invalid decode
	flagKept                        // CET closure: reachable from an anchor
)

// supersetResult is the outcome of superset disassembly: the
// per-offset table and what the refinement concluded about it.
type supersetResult struct {
	// table.lens[off] is the length of the instruction that decodes at
	// section offset off, 0 when nothing does.
	table
	// sh is the sweep's sharding, which the survivor counts and the
	// universe's walk share.
	sh shards
	// wraps reports a section whose end address passes the top of the
	// address space, where every successor address computed modulo
	// 2^64 falls outside [addr, addr+len) (at).
	wraps bool
	// flags[off] holds the flag* bits of offset off. A span-end
	// truncated offset (flagTruncated) is treated by the refinement as
	// unknown-but-acceptable — the same way the linear sweep skips the
	// trailing bytes — so a truncated final instruction never poisons
	// the genuine chain leading up to it.
	flags []uint8
	// decoded and valid count the offsets that decode and those that
	// also survive the refinement.
	decoded, valid int
	// validIn[i] and keptIn[i] count the refinement's and the CET
	// closure's survivors in shard i of sh: the sweep counts what its
	// shard leaves valid, poison and keep adjust the counts as they go,
	// so that survivors places each shard's records without counting
	// them first.
	validIn, keptIn []int
}

// edge is a successor relation the sweep leaves to the refinement: a
// branch from src into the section, or a fall-through from src that
// leaves src's shard. Offsets are int32, which sweepSuperset checks the
// section length against.
type edge struct{ src, dst int32 }

// supersetCancel decodes at every offset of code (loaded at addr) and
// refines the result, with a sharded decode sweep and cooperative
// cancellation. Decoding at every offset is memoryless — each offset is
// independent — so shards simply split the offset range and write
// their own part of the table in place. The refinement is a least
// fixpoint, which the order of work cannot change, so the result is
// identical for every width and pool state. Once cancel is closed the
// sweep or the refinement stops within a few thousand steps and
// reports ok=false with no result.
func supersetCancel(code []byte, addr uint64, width int, pool *work.Pool, cancel <-chan struct{}) (*supersetResult, bool) {
	res, edges, ok := sweepSuperset(code, addr, width, pool, cancel)
	if !ok || !res.refine(edges, cancel) {
		return nil, false
	}
	return res, true
}

// sweepSuperset is supersetCancel's sharded half: the table, with
// everything the refinement can settle inside a shard already settled
// (sweep), and each shard's edges for the refinement to settle after
// the barrier. It reports false when cancel closed first.
func sweepSuperset(code []byte, addr uint64, width int, pool *work.Pool, cancel <-chan struct{}) (*supersetResult, [][]edge, bool) {
	if len(code) > math.MaxInt32 {
		panic(fmt.Sprintf("disasm: a %d-byte section exceeds the superset table's int32 offsets", len(code)))
	}
	sh := shardsFor(len(code), width)
	res := &supersetResult{
		table:   table{code: code, addr: addr, lens: make([]uint8, len(code)), attrs: make([]x86.Attr, len(code))},
		sh:      sh,
		wraps:   addr > math.MaxUint64-uint64(len(code)),
		flags:   make([]uint8, len(code)),
		validIn: make([]int, sh.count),
	}
	edges := make([][]edge, sh.count)
	decoded := make([]int, sh.count)
	var aborted atomic.Bool
	work.ForEach(pool, width, sh.count, func(i int) {
		var ok bool
		if edges[i], decoded[i], res.validIn[i], ok = res.sweep(i, cancel); !ok {
			aborted.Store(true)
		}
	})
	if aborted.Load() {
		return nil, nil, false
	}
	for _, d := range decoded {
		res.decoded += d
	}
	return res, edges, true
}

// sweep decodes shard i from its last offset down to its first, so
// that a fall-through that stays in the shard lands on an offset
// already decoded: an instruction whose in-shard fall-through, or
// in-shard branch target above it, is a hard invalid or already invalid
// is poisoned on the spot. What the shard cannot see is returned as
// edges from the instructions it leaves valid: every branch into the
// section (the reverse index needs them even when settled) and every
// fall-through past the shard's end (at most the 15 offsets below it).
// The shard reads and writes its own offsets only. It counts the
// offsets that decode and those it leaves valid, and reports false
// when cancel closed first.
func (r *supersetResult) sweep(i int, cancel <-chan struct{}) (edges []edge, decoded, valid int, ok bool) {
	lo, hi := r.sh.lo(i), r.sh.lo(i+1)
	// On compiled code about one offset in 15 leaves an edge.
	edges = make([]edge, 0, (hi-lo)/12)
	for off := hi - 1; off >= lo; off-- {
		if (hi-1-off)&(cancelStride-1) == 0 && stopped(cancel) {
			return nil, 0, 0, false
		}
		n, attrs, err := x86.Shape(r.code[off:])
		if err != nil {
			if err == x86.ErrTruncated {
				r.flags[off] = flagTruncated
			}
			continue
		}
		r.lens[off] = uint8(n)
		r.attrs[off] = attrs
		r.flags[off] = shapeFlags(r.code[off:off+n], attrs)
		decoded++
		ft, jt := r.fallsTo(off), r.jumpsTo(off)
		if ft >= 0 && ft < hi && r.poisons(ft) || jt > off && jt < hi && r.poisons(jt) {
			r.flags[off] |= flagInvalid
			continue
		}
		valid++
		if ft >= hi {
			edges = append(edges, edge{int32(off), int32(ft)})
		}
		if jt >= 0 && jt != off {
			edges = append(edges, edge{int32(off), int32(jt)})
		}
	}
	return edges, decoded, valid, true
}

// shapeFlags condenses an instruction's bytes and attributes to the
// facts the refinement and the closure use.
func shapeFlags(inst []byte, attrs x86.Attr) uint8 {
	var f uint8
	if attrs&x86.AttrStop != 0 {
		f |= flagStop
	}
	switch {
	case attrs&x86.AttrRel8 != 0:
		f |= flagRel8
	case attrs&x86.AttrRel32 != 0:
		f |= flagRel32
	}
	// A direct branch is one with an encoded displacement
	// (x86.Inst.IsDirectBranch).
	if f&(flagRel8|flagRel32) != 0 && attrs&(x86.AttrJump|x86.AttrCondJump|x86.AttrCall) != 0 {
		f |= flagDirect
	}
	if len(inst) == 4 && binary.LittleEndian.Uint32(inst) == endbr64 {
		f |= flagEndbr
	}
	return f
}

// endbr64 is F3 0F 1E FA read as a little-endian word
// (x86.Inst.IsEndbr64).
const endbr64 = 0xFA1E0FF3

// at maps a successor at section offset t — an instruction's end, plus
// its displacement for a branch target — to t, and to -1 when t lies
// outside the section. Falling off the section end and branching out of
// it (PLT, other sections) are unknown-but-acceptable, never evidence
// of invalidity. In a section whose addresses run past the top of the
// address space no successor address lands inside it (wraps).
func (r *supersetResult) at(t int) int {
	if t < 0 || t >= len(r.lens) || r.wraps {
		return -1
	}
	return t
}

// fallsTo returns the section offset the instruction at off falls
// through to, -1 when it never falls through or runs off the section.
func (r *supersetResult) fallsTo(off int) int {
	if r.flags[off]&flagStop != 0 {
		return -1
	}
	return r.at(off + int(r.lens[off]))
}

// jumpsTo returns the section offset the branch displacement of the
// instruction at off points to, -1 when it has none or points outside
// the section. The displacement is always the final field, so it is
// read from the text and not stored.
func (r *supersetResult) jumpsTo(off int) int {
	end := off + int(r.lens[off])
	switch f := r.flags[off]; {
	case f&flagRel8 != 0:
		return r.at(end + int(int8(r.code[end-1])))
	case f&flagRel32 != 0:
		return r.at(end + int(int32(binary.LittleEndian.Uint32(r.code[end-4:]))))
	}
	return -1
}

// poisons reports whether a successor at section offset off makes its
// predecessors invalid: it does not decode for a reason other than the
// section ending mid-instruction, or it is an instruction the
// refinement found invalid.
func (r *supersetResult) poisons(off int) bool {
	return r.flags[off]&flagInvalid != 0 || r.lens[off] == 0 && r.flags[off]&flagTruncated == 0
}

// refine completes the valid set the sweep began: an instruction is
// invalid if its fall-through (or a direct branch target inside the
// section) lands on an offset that does not decode and is inside the
// section, or on an invalid instruction. Offsets that fail to decode
// only because the section ends mid-instruction are treated like
// falling off the section end, matching the linear sweep's skip
// behavior for a truncated tail.
//
// The sweep settled every fall-through inside a shard; settle takes
// the edges it left, once each, after the barrier. Invalidity then
// flows against the edges (drain), a worklist over reverse edges
// whatever direction the edges point: the fall-through predecessors of
// an offset are the at most 15 preceding offsets whose length lands on
// it, and the branch predecessors come from a counting sort of the
// edges by target (reverse). Every offset is pushed at most once, so
// after the sweep the refinement costs O(edges + poisoned offsets)
// steps and one prefix sum over an int32 per offset. Each poisoned
// offset is taken back off its shard's valid count. It reports false
// when cancel closed first.
func (r *supersetResult) refine(edges [][]edge, cancel <-chan struct{}) bool {
	work, ok := r.settle(edges, cancel)
	if !ok {
		return false
	}
	if len(work) > 0 {
		rev, ok := r.reverse(edges, cancel)
		if !ok || !r.drain(work, rev, cancel) {
			return false
		}
	}
	for _, v := range r.validIn {
		r.valid += v
	}
	return true
}

// poison marks the instruction at off invalid and pushes it on work.
func (r *supersetResult) poison(off int32, work []int32) []int32 {
	r.flags[off] |= flagInvalid
	r.validIn[r.sh.of(int(off))]--
	return append(work, off)
}

// eachEdge visits the edges in order, polling cancel, and reports
// false when cancel closed first.
func eachEdge(edges [][]edge, cancel <-chan struct{}, visit func(e edge)) bool {
	steps := 0
	for _, es := range edges {
		for _, e := range es {
			if steps&(cancelStride-1) == 0 && stopped(cancel) {
				return false
			}
			steps++
			visit(e)
		}
	}
	return true
}

// settle poisons every source the sweep left valid whose edge target
// poisons it, and returns them as the worklist's seeds. It reports
// false when cancel closed first.
func (r *supersetResult) settle(edges [][]edge, cancel <-chan struct{}) (work []int32, ok bool) {
	ok = eachEdge(edges, cancel, func(e edge) {
		if r.flags[e.src]&flagInvalid == 0 && r.poisons(int(e.dst)) {
			work = r.poison(e.src, work)
		}
	})
	return work, ok
}

// reverseIndex lists the sources of the edges into each offset t:
// src[start[t]:start[t+1]].
type reverseIndex struct{ start, src []int32 }

// reverse sorts the edges by target, counting: only a decodable target
// can be pushed, and only a source still valid can be poisoned, so the
// index holds just those edges. It reports false when cancel closed
// first.
func (r *supersetResult) reverse(edges [][]edge, cancel <-chan struct{}) (reverseIndex, bool) {
	n := len(r.lens)
	indexed := func(e edge) bool { return r.flags[e.src]&flagInvalid == 0 && r.lens[e.dst] != 0 }
	// start[t+2] first counts the edges into t.
	start := make([]int32, n+2)
	if !eachEdge(edges, cancel, func(e edge) {
		if indexed(e) {
			start[e.dst+2]++
		}
	}) {
		return reverseIndex{}, false
	}
	for t := 1; t < len(start); t++ {
		if t&(cancelStride-1) == 0 && stopped(cancel) {
			return reverseIndex{}, false
		}
		start[t] += start[t-1]
	}
	// start[t+1] is now where t's sources begin; filling advances it to
	// where they end.
	src := make([]int32, start[n+1])
	if !eachEdge(edges, cancel, func(e edge) {
		if indexed(e) {
			src[start[e.dst+1]] = e.src
			start[e.dst+1]++
		}
	}) {
		return reverseIndex{}, false
	}
	return reverseIndex{start, src}, true
}

// drain propagates invalidity from the worklist to the predecessors of
// each offset it pops. A seed exists only if some address mapped into
// the section, so the section end does not wrap and a predecessor at
// off-k with length k does fall through to off. It reports false when
// cancel closed first.
func (r *supersetResult) drain(work []int32, rev reverseIndex, cancel <-chan struct{}) bool {
	for steps := 0; len(work) > 0; steps++ {
		if steps&(cancelStride-1) == 0 && stopped(cancel) {
			return false
		}
		off := work[len(work)-1]
		work = work[:len(work)-1]
		for k := int32(1); k <= 15 && k <= off; k++ {
			if p := off - k; int32(r.lens[p]) == k && r.flags[p]&(flagStop|flagInvalid) == 0 {
				work = r.poison(p, work)
			}
		}
		for _, p := range rev.src[rev.start[off]:rev.start[off+1]] {
			if r.flags[p]&flagInvalid == 0 {
				work = r.poison(p, work)
			}
		}
	}
	return true
}

// validAt reports whether an instruction decodes at section offset off
// and survives the closure refinement.
func (r *supersetResult) validAt(off int) bool {
	return r.lens[off] != 0 && r.flags[off]&flagInvalid == 0
}

// keptAt reports whether cetPrune kept the instruction at off.
func (r *supersetResult) keptAt(off int) bool { return r.flags[off]&flagKept != 0 }

// count returns (decoded, surviving) instruction counts.
func (r *supersetResult) count() (decoded, valid int) { return r.decoded, r.valid }

// badOffsets counts section offsets where no instruction decodes at
// all (the superset analogue of the linear sweep's BadBytes).
func (r *supersetResult) badOffsets() int { return len(r.lens) - r.decoded }

// survivors returns the surviving instructions — cetPrune's kept set,
// or with kept=false the refinement's valid set — in address order,
// over the sweep's shards on width workers: the per-shard counts the
// refinement and the closure kept size the slice, and each record's
// attributes are the ones the sweep stored. It reports false when
// cancel closed first.
func (r *supersetResult) survivors(kept bool, width int, pool *work.Pool, cancel <-chan struct{}) ([]x86.Loc, bool) {
	// A kept offset is valid and a valid offset decodes, so one flag
	// test picks either set.
	mask, want, counts := flagInvalid, uint8(0), r.validIn
	if kept {
		mask, want, counts = flagKept, flagKept, r.keptIn
	}
	return r.place(r.sh, counts, r.flags, mask, want, width, pool, cancel)
}
