package disasm

import (
	"encoding/binary"
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
	// closure's survivors in shard i of sh, kept by poison and keep as
	// they go, so that survivors places each shard's records without
	// counting them first.
	validIn, keptIn []int
}

// supersetCancel decodes at every offset of code (loaded at addr),
// with a sharded decode sweep and cooperative cancellation. Decoding at
// every offset is memoryless — each offset is independent — so shards
// simply split the offset range and write their own part of the table
// in place: the result is identical for every width and pool state.
// Once cancel is closed the sweep or the refinement stops within a few
// thousand steps and reports ok=false with no result. The refinement
// runs sequentially after the sweep.
func supersetCancel(code []byte, addr uint64, width int, pool *work.Pool, cancel <-chan struct{}) (*supersetResult, bool) {
	sh := shardsFor(len(code), width)
	res := &supersetResult{
		table: table{code: code, addr: addr, lens: make([]uint8, len(code)), attrs: make([]x86.Attr, len(code))},
		sh:    sh,
		flags: make([]uint8, len(code)),
	}

	var aborted atomic.Bool
	work.ForEach(pool, width, sh.count, func(i int) {
		lo, hi := sh.lo(i), sh.lo(i+1)
		for off := lo; off < hi; off++ {
			if (off-lo)&(cancelStride-1) == 0 && stopped(cancel) {
				aborted.Store(true)
				return
			}
			// Disjoint offset ranges: no write races on the table.
			n, attrs, err := x86.Shape(code[off:])
			if err != nil {
				if err == x86.ErrTruncated {
					res.flags[off] = flagTruncated
				}
				continue
			}
			res.lens[off] = uint8(n)
			res.attrs[off] = attrs
			res.flags[off] = shapeFlags(code[off:off+n], attrs)
		}
	})
	if aborted.Load() || !res.refine(cancel) {
		return nil, false
	}
	return res, true
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

// at maps an address to its section offset, -1 when it lies outside
// the section. Falling off the section end and branching out of it
// (PLT, other sections) are unknown-but-acceptable, never evidence of
// invalidity.
func (r *supersetResult) at(a uint64) int {
	if a >= r.addr && a < r.addr+uint64(len(r.lens)) {
		return int(a - r.addr)
	}
	return -1
}

// fallsTo returns the section offset the instruction at off falls
// through to, -1 when it never falls through or runs off the section.
func (r *supersetResult) fallsTo(off int) int {
	if r.flags[off]&flagStop != 0 {
		return -1
	}
	return r.at(r.addr + uint64(off) + uint64(r.lens[off]))
}

// jumpsTo returns the section offset the branch displacement of the
// instruction at off points to, -1 when it has none or points outside
// the section. The displacement is always the final field, so it is
// read from the text and not stored.
func (r *supersetResult) jumpsTo(off int) int {
	end := off + int(r.lens[off])
	var rel int64
	switch f := r.flags[off]; {
	case f&flagRel8 != 0:
		rel = int64(int8(r.code[end-1]))
	case f&flagRel32 != 0:
		rel = int64(int32(binary.LittleEndian.Uint32(r.code[end-4:])))
	default:
		return -1
	}
	return r.at(r.addr + uint64(end) + uint64(rel))
}

// hardInvalid reports a successor offset that does not decode for a
// reason other than the section ending mid-instruction.
func (r *supersetResult) hardInvalid(off int) bool {
	return off >= 0 && r.lens[off] == 0 && r.flags[off]&flagTruncated == 0
}

// refine computes the valid set: an instruction is invalid if its
// fall-through (or a direct branch target inside the section) lands on
// an offset that does not decode and is inside the section, or on an
// invalid instruction. Offsets that fail to decode only because the
// section ends mid-instruction are treated like falling off the
// section end, matching the linear sweep's skip behavior for a
// truncated tail.
//
// Invalidity flows against the edges, so the computation is a worklist
// over reverse edges, O(offsets + edges) whatever direction the edges
// point: the fall-through predecessors of an offset are the at most 15
// preceding offsets whose length lands on it, and the branch
// predecessors come from a counting-sort CSR over the targets. Every
// decodable offset is counted valid in its shard and every poisoned one
// taken back off. It reports false when cancel closed first.
func (r *supersetResult) refine(cancel <-chan struct{}) bool {
	n := len(r.lens)
	r.validIn = make([]int, r.sh.count)
	var work []int
	poison := func(off, shard int) {
		r.flags[off] |= flagInvalid
		work = append(work, off)
		r.validIn[shard]--
	}

	// Seed with everything one step from a hard invalid, and count the
	// branch edges into each decodable target t at start[t+2].
	start := make([]int, n+2)
	for i := range r.validIn {
		for off := r.sh.lo(i); off < r.sh.lo(i+1); off++ {
			if off&(cancelStride-1) == 0 && stopped(cancel) {
				return false
			}
			if r.lens[off] == 0 {
				continue
			}
			r.decoded++
			r.validIn[i]++
			jt := r.jumpsTo(off)
			if r.hardInvalid(r.fallsTo(off)) || r.hardInvalid(jt) {
				poison(off, i)
			} else if jt >= 0 && r.lens[jt] != 0 {
				start[jt+2]++
			}
		}
	}
	for t := 1; t < len(start); t++ {
		start[t] += start[t-1]
	}
	// start[t+1] is now where t's sources begin; filling advances it to
	// where they end, so that afterwards the offsets that branch to t
	// are src[start[t]:start[t+1]].
	src := make([]int, start[n+1])
	for off := 0; off < n; off++ {
		if off&(cancelStride-1) == 0 && stopped(cancel) {
			return false
		}
		if r.lens[off] == 0 || r.flags[off]&flagInvalid != 0 {
			continue
		}
		if jt := r.jumpsTo(off); jt >= 0 && r.lens[jt] != 0 {
			src[start[jt+1]] = off
			start[jt+1]++
		}
	}

	// A seed exists only if some address mapped into the section, so
	// from here on the section end does not wrap and a predecessor at
	// off-k with length k does fall through to off.
	for steps := 0; len(work) > 0; steps++ {
		if steps&(cancelStride-1) == 0 && stopped(cancel) {
			return false
		}
		off := work[len(work)-1]
		work = work[:len(work)-1]
		for k := 1; k <= 15 && k <= off; k++ {
			if p := off - k; int(r.lens[p]) == k && r.flags[p]&(flagStop|flagInvalid) == 0 {
				poison(p, r.sh.of(p))
			}
		}
		for _, p := range src[start[off]:start[off+1]] {
			if r.flags[p]&flagInvalid == 0 {
				poison(p, r.sh.of(p))
			}
		}
	}
	for _, v := range r.validIn {
		r.valid += v
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
