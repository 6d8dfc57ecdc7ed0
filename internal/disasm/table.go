package disasm

import (
	"sync/atomic"

	"e9patch/internal/work"
	"e9patch/internal/x86"
)

// The patcher needs instruction locations and sizes only, so every
// recovery mode works in one representation: a per-offset table with
// one length byte per section byte (the superset family adds one flag
// byte, superset.go). Linear recovery sweeps and stitches in it
// (linear.go), the refinement and the CET closure run over it, and the
// one walk below turns whichever offsets a mode keeps into the
// universe. No mode decodes an operand: the sweeps ask x86.Shape for a
// length (and the superset sweep for the attribute flags behind its
// flag byte), and the universe's records get their attributes from
// x86.AttrsOf.

// table is the per-offset recovery table.
type table struct {
	code []byte
	// addr is the section load address the recovery ran at.
	addr uint64
	// lens[off] is the length of the instruction recovered at section
	// offset off, 0 when there is none.
	lens []uint8
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

// universe materializes the recovered instructions in address order
// into one exactly sized slice: the offsets that hold a length and,
// when flags is non-nil, whose flags read want under mask. A count pass
// sizes the slice and places each shard's part, a fill pass writes the
// records; both are sharded walks of the table (walk) and both poll
// cancel. covered is the number of section bytes the kept instructions
// span. It reports false when cancel closed first.
func (t *table) universe(flags []uint8, mask, want uint8, width int, pool *work.Pool, cancel <-chan struct{}) (locs []x86.Loc, covered int, ok bool) {
	sh := shardsFor(len(t.lens), width)

	var aborted atomic.Bool
	start := make([]int, sh.count+1) // start[i+1]: shard i's count, then its end index
	spans := make([]int, sh.count)
	work.ForEach(pool, width, sh.count, func(i int) {
		count, span, ok := t.walk(sh.lo(i), sh.lo(i+1), flags, mask, want, nil, cancel)
		if !ok {
			aborted.Store(true)
		}
		start[i+1], spans[i] = count, span
	})
	if aborted.Load() {
		return nil, 0, false
	}
	for i := range spans {
		start[i+1] += start[i]
		covered += spans[i]
	}

	locs = make([]x86.Loc, start[sh.count])
	work.ForEach(pool, width, sh.count, func(i int) {
		if _, _, ok := t.walk(sh.lo(i), sh.lo(i+1), flags, mask, want, locs[start[i]:start[i+1]], cancel); !ok {
			aborted.Store(true)
		}
	})
	if aborted.Load() {
		return nil, 0, false
	}
	return locs, covered, true
}

// walk visits the kept offsets in [lo, hi) in order, counting them and
// the bytes they span, and when out is non-nil writing each one's
// record to it. The length is in the table, so a record costs the
// attribute lookup (x86.AttrsOf) and no second length walk.
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
			out[count] = x86.LocAt(t.code[off:], t.addr+uint64(off), n)
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
