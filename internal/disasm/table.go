package disasm

import (
	"sync/atomic"

	"e9patch/internal/work"
	"e9patch/internal/x86"
)

// The patcher needs instruction locations and sizes only, so every
// recovery mode works in one representation: a per-offset table with
// one length byte per section byte (the superset family adds one flag
// byte and the four-byte attribute word x86.Shape returned, superset.go).
// Linear recovery sweeps and stitches in it (linear.go), the refinement
// and the CET closure run over it, and the one walk below turns
// whichever offsets a mode keeps into the universe. No mode decodes an
// operand: the sweeps ask x86.Shape for a length and attributes. The
// superset sweep keeps the attributes, so its universe's records read
// them from the table; the linear table keeps lengths only, and its
// records get their attributes from x86.AttrsOf.

// table is the per-offset recovery table.
type table struct {
	code []byte
	// addr is the section load address the recovery ran at.
	addr uint64
	// lens[off] is the length of the instruction recovered at section
	// offset off, 0 when there is none.
	lens []uint8
	// attrs[off] is the attribute word of that instruction, kept by the
	// superset sweep; nil for a linear table, whose walk derives it.
	attrs []x86.Attr
}

// minShardBytes keeps shards large enough that per-shard overhead
// (and linear mode's seam repair) is negligible against the sweep.
const minShardBytes = 16 << 10

// cancelStride is how many steps pass between cancellation polls; a
// power of two so the check is a mask.
const cancelStride = 1 << 12

// stopped reports whether cancel is closed; a nil cancel never is.
func stopped(cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// shards is how a pass over n section bytes splits into count equal
// byte ranges.
type shards struct{ n, count int }

// shardsFor splits n section bytes for width workers: a few shards per
// worker to smooth uneven decode costs, none below the floor, one when
// there is nothing to share. Every sharded pass produces the same table
// at every count, which is why geometry is free to follow the worker
// count.
func shardsFor(n, width int) shards {
	count := n / minShardBytes
	if most := width * 4; count > most {
		count = most
	}
	if width <= 1 || count <= 1 {
		count = 1
	}
	return shards{n, count}
}

// lo is the first offset of shard i; shard i ends where i+1 starts.
func (s shards) lo(i int) int { return i * s.n / s.count }

// of is the shard that holds offset off: the last i with lo(i) <= off.
func (s shards) of(off int) int {
	if s.count == 1 {
		return 0
	}
	return ((off+1)*s.count - 1) / s.n
}

// universe materializes a linear table's instructions in address
// order into one exactly sized slice: the offsets that hold a length. A
// count pass sizes the slice and places each shard's part, and place
// writes the records; both are sharded walks of the table (walk) and
// both poll cancel. covered is the number of section bytes the
// instructions span. It reports false when cancel closed first.
func (t *table) universe(width int, pool *work.Pool, cancel <-chan struct{}) (locs []x86.Loc, covered int, ok bool) {
	sh := shardsFor(len(t.lens), width)

	var aborted atomic.Bool
	counts := make([]int, sh.count)
	spans := make([]int, sh.count)
	work.ForEach(pool, width, sh.count, func(i int) {
		count, span, ok := t.walk(sh.lo(i), sh.lo(i+1), nil, 0, 0, nil, cancel)
		if !ok {
			aborted.Store(true)
		}
		counts[i], spans[i] = count, span
	})
	if aborted.Load() {
		return nil, 0, false
	}
	for _, span := range spans {
		covered += span
	}
	if locs, ok = t.place(sh, counts, nil, 0, 0, width, pool, cancel); !ok {
		return nil, 0, false
	}
	return locs, covered, true
}

// place writes the kept offsets' records in address order into one
// slice, given how many each shard of sh holds: the offsets that hold
// a length and, when flags is non-nil, whose flags read want under
// mask. It reports false when cancel closed first.
func (t *table) place(sh shards, counts []int, flags []uint8, mask, want uint8, width int, pool *work.Pool, cancel <-chan struct{}) ([]x86.Loc, bool) {
	start := make([]int, sh.count+1)
	for i, c := range counts {
		start[i+1] = start[i] + c
	}
	locs := make([]x86.Loc, start[sh.count])
	var aborted atomic.Bool
	work.ForEach(pool, width, sh.count, func(i int) {
		if _, _, ok := t.walk(sh.lo(i), sh.lo(i+1), flags, mask, want, locs[start[i]:start[i+1]], cancel); !ok {
			aborted.Store(true)
		}
	})
	if aborted.Load() {
		return nil, false
	}
	return locs, true
}

// walk visits the kept offsets in [lo, hi) in order, counting them and
// the bytes they span, and when out is non-nil writing each one's
// record to it. The length is in the table, and so are a superset
// table's attributes, so a record costs no second decode: only a
// linear record looks its attributes up (x86.AttrsOf).
//
// A linear table (flags == nil) holds a length exactly where the
// sequential sweep landed, so its instructions do not overlap and the
// walk advances by length: one step per instruction, not per byte. A
// shard that starts inside an instruction begun in the previous one
// steps over zeros to the next start, which is how the per-byte walk
// treated a seam too. The superset tables hold overlapping candidates
// and are visited at every offset. ok is false when cancel closed
// first.
func (t *table) walk(lo, hi int, flags []uint8, mask, want uint8, out []x86.Loc, cancel <-chan struct{}) (count, span int, ok bool) {
	for off, steps := lo, 0; off < hi; steps++ {
		if steps&(cancelStride-1) == 0 && stopped(cancel) {
			return 0, 0, false
		}
		n := t.lens[off]
		if n == 0 || (flags != nil && flags[off]&mask != want) {
			off++
			continue
		}
		if out != nil {
			var attrs x86.Attr
			if t.attrs != nil {
				attrs = t.attrs[off]
			} else {
				attrs = x86.AttrsOf(t.code[off:])
			}
			out[count] = x86.LocAt(t.code[off:], t.addr+uint64(off), n, attrs)
		}
		count++
		span += int(n)
		if flags == nil {
			off += int(n)
		} else {
			off++
		}
	}
	return count, span, true
}
