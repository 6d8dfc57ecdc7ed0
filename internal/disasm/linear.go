package disasm

import (
	"sync/atomic"

	"e9patch/internal/work"
	"e9patch/internal/x86"
)

// Linear recovery in the per-offset table. A linear sweep is
// memoryless: the scan state is exactly the current offset, so the
// sweep starting at offset e always visits the same positions
// regardless of how it got to e. Each shard sweeps its own byte range
// from the range's first byte, noting the length of everything it
// decodes at the offset it decoded it; the sequential stitch then
// walks shard by shard, entering each one at the previous shard's exit
// cursor. Where the cursor lands on an offset the shard swept from, the
// rest of the shard is what the sequential sweep would have produced
// and the cursor jumps to the shard's exit; until then the stitch
// decodes single instructions at the cursor and forgets the offsets
// the shard visited and the cursor passed (instruction boundaries
// self-synchronise within a few instructions on x86). Afterwards the
// table holds a length exactly at the offsets the sequential sweep
// lands on, for every shard count.

// recoverLinear decodes code (loaded at addr) from the start,
// instruction by instruction, skipping undecodable bytes one at a time.
// The sweep is sharded over width workers (width <= 1 and small inputs
// sweep as one shard), with the same output at every width and pool
// state. Once cancel is closed the sweeps, the stitch and the
// materialization stop within a few thousand steps and report ok=false
// with no result. A nil cancel never stops early.
func recoverLinear(code []byte, addr uint64, width int, pool *work.Pool, cancel <-chan struct{}) (Result, bool) {
	t := table{code: code, addr: addr, lens: make([]uint8, len(code))}
	sh := shardsFor(len(code), width)
	ends := make([]int, sh.count) // each shard's exit cursor
	var aborted atomic.Bool
	work.ForEach(pool, width, sh.count, func(i int) {
		// Lengths are noted at offsets inside the shard's own range
		// only: no write races on the table.
		end, ok := t.sweep(sh.lo(i), sh.lo(i+1), cancel)
		if !ok {
			aborted.Store(true)
		}
		ends[i] = end
	})
	if aborted.Load() || !t.stitch(sh, ends, cancel) {
		return Result{}, false
	}

	locs, covered, ok := t.universe(nil, 0, 0, width, pool, cancel)
	if !ok {
		return Result{}, false
	}
	// Every byte is inside a recovered instruction or was skipped.
	return Result{Insts: locs, BadBytes: len(code) - covered}, true
}

// stitch makes the table the sequential sweep's, given the shards that
// swept it and each one's exit cursor. cursor is always the offset the sequential sweep would
// be at, p the next offset shard i swept from. It reports false when
// cancel closed first.
func (t *table) stitch(sh shards, ends []int, cancel <-chan struct{}) bool {
	cursor := 0
	for i := range ends {
		p, hi := sh.lo(i), sh.lo(i+1)
		for cursor < hi || p < hi {
			if cursor == p {
				cursor = ends[i]
				break
			}
			if p < cursor {
				// The shard visited p, the sequential sweep does not.
				n := t.lens[p]
				t.lens[p] = 0
				p += max(1, int(n))
				continue
			}
			// The shard never visited cursor: step on from there.
			var ok bool
			if cursor, ok = t.sweep(cursor, min(p, hi), cancel); !ok {
				return false
			}
		}
	}
	return true
}

// sweep runs the linear sweep from off until it reaches hi, noting
// each decoded length in the table at the offset it decoded at, and
// returns the exit cursor (the first position >= hi). An undecodable
// byte is skipped and keeps length 0, as does a decoder stall (a
// decoded instruction of non-positive length), so a hostile input can
// never pin the sweep in place. ok is false when cancel closed first.
func (t *table) sweep(off, hi int, cancel <-chan struct{}) (end int, ok bool) {
	for steps := 0; off < hi; steps++ {
		if steps&(cancelStride-1) == 0 && stopped(cancel) {
			return off, false
		}
		n, _, err := x86.Shape(t.code[off:])
		if err != nil || n <= 0 {
			off++
			continue
		}
		t.lens[off] = uint8(n)
		off += n
	}
	return off, true
}
