package patch

import (
	"slices"

	"e9patch/internal/va"
	"e9patch/internal/work"
)

// Region-parallel reverse-order patching.
//
// Every effect of patching one location reaches strictly forward from
// its address: the jump bytes written, the punned tail bytes read and
// locked, a T2 successor, and the farthest case — a T3 victim starting
// within +129 bytes, itself at most 15 bytes long, whose punned
// J_patch tail reads 5 more bytes (≤ +147 in total). Selected
// addresses separated by at least guardBand bytes therefore share no
// code bytes, no locks and no window inputs, and can be patched
// concurrently.
//
// The lock state is a bitmap, so two regions must not share a 64-bit
// lock word either. They cannot: the bytes a region touches end less
// than effectReach past its highest selected address, and the next
// region up begins at least guardBand above that address, so between
// the touched bytes of two regions lie at least guardBand-effectReach =
// 96 untouched ones, more than the 64 a word covers.
//
// Determinism is the hard constraint: the output must be byte-for-byte
// identical for every worker count. Two rules deliver it:
//
//  1. The region decomposition and the arena belt are functions of the
//     workload only (selected addresses, gap structure, address-space
//     geometry) — never of Options.Workers. Workers changes
//     scheduling, nothing else.
//
//  2. Regions never touch shared mutable state while speculating.
//     Each region patches against a private clone of the initial
//     address space plus a private bump arena for unconstrained
//     trampolines, journaling every clone reservation. A sequential
//     replay then commits the journals in fixed (descending) region
//     order: FindFree is first-fit, so any journaled range still free
//     in the shared space is exactly what a sequential run would have
//     chosen (adding reservations can only push first-fit results
//     upward, and the range itself being free pins it). A conflict —
//     another region got there first — restores the region's bytes
//     from the original text, clears its locks and redoes it
//     sequentially against the shared space, which is equally
//     deterministic.
const (
	// guardBand is the minimum gap between selected addresses of
	// adjacent regions; it strictly exceeds effectReach.
	guardBand = 256
	// effectReach bounds the forward reach of one patch (≤ 147 bytes,
	// see above; 160 adds margin). Redo resets this many bytes past a
	// region's highest selected address.
	effectReach = 160
	// arenaSize is each region's private trampoline arena. The belt of
	// up to maxRegions arenas stays ≤ 256 MiB so it cannot shadow the
	// distant pun windows small non-PIE binaries depend on.
	arenaSize = 8 << 20
	// maxRegions caps the decomposition.
	maxRegions = 32
	// defaultMinRegion is the default Options.MinRegionSize: regions
	// smaller than this are not worth a clone and an arena.
	defaultMinRegion = 64
)

// arena is a region's private bump allocator over a pre-reserved
// address range. Allocations from it need no address-space operations
// at all — the whole range is already reserved in every space — which
// keeps unconstrained (B1/B0 and most T2/T3 patch-side) trampolines
// off the replay journal entirely.
type arena struct {
	base, end, ptr uint64
}

// peek returns the next allocation address if it fits the arena and
// starts inside the pun window [winLo, winHi]. The caller bumps ptr
// only after the template emits successfully.
func (a *arena) peek(size, winLo, winHi uint64) (uint64, bool) {
	if a.ptr < winLo || a.ptr > winHi || a.ptr+size > a.end {
		return 0, false
	}
	return a.ptr, true
}

// spaceOp is one journaled address-space mutation.
type spaceOp struct {
	release bool
	lo, hi  uint64
}

// reserveVA reserves in the rewriter's space, journaling while
// speculating so the replay can re-validate against the shared space.
func (r *Rewriter) reserveVA(lo, hi uint64) error {
	if err := r.space.Reserve(lo, hi); err != nil {
		return err
	}
	if r.speculating {
		r.journal = append(r.journal, spaceOp{release: false, lo: lo, hi: hi})
	}
	return nil
}

// mustRelease backs out a reservation this rewriter made; failure is a
// state-tracking bug.
func (r *Rewriter) mustRelease(lo, hi uint64) {
	if err := r.space.Release(lo, hi); err != nil {
		panic("patch: inconsistent release: " + err.Error())
	}
	if r.speculating {
		r.journal = append(r.journal, spaceOp{release: true, lo: lo, hi: hi})
	}
}

// undoTrampoline backs out an uncommitted allocTrampoline result.
func (r *Rewriter) undoTrampoline(t uint64, code []byte, fromArena bool) {
	r.unemit(code)
	end := t + uint64(len(code))
	if fromArena {
		if r.arena == nil || r.arena.ptr != end {
			panic("patch: arena undo out of order")
		}
		r.arena.ptr = t
		return
	}
	r.mustRelease(t, end)
}

// decompose splits the descending patch order into independently
// patchable regions: contiguous runs separated by gaps >= guardBand,
// packed into at most maxRegions groups of roughly equal size. The
// result depends only on the workload, never on Options.Workers.
func (r *Rewriter) decompose(order []int) [][]int {
	minRegion := r.opts.MinRegionSize
	if minRegion <= 0 {
		minRegion = defaultMinRegion
	}
	maxR := len(order) / minRegion
	if maxR > maxRegions {
		maxR = maxRegions
	}
	if maxR <= 1 {
		return [][]int{order}
	}
	// Cluster boundaries: indices where the descending address gap
	// reaches the guard band.
	cuts := []int{0}
	for i := 1; i < len(order); i++ {
		if r.insts[order[i-1]].Addr-r.insts[order[i]].Addr >= guardBand {
			cuts = append(cuts, i)
		}
	}
	if len(cuts) == 1 {
		return [][]int{order}
	}
	// Pack whole clusters into regions of ~len/maxR locations each.
	target := (len(order) + maxR - 1) / maxR
	var regions [][]int
	start := 0
	for k := 1; k <= len(cuts); k++ {
		end := len(order)
		if k < len(cuts) {
			end = cuts[k]
		}
		if end == len(order) || (end-start >= target && len(regions) < maxR-1) {
			regions = append(regions, order[start:end])
			start = end
		}
	}
	return regions
}

// child builds a rewriter for one region, sharing the (byte-disjoint)
// text, lock and instruction state while owning its space view, arena
// and outputs.
func (r *Rewriter) child(space *va.Space, ar *arena, hint uint64, speculating bool) *Rewriter {
	return &Rewriter{
		orig:         r.orig,
		code:         r.code,
		textAddr:     r.textAddr,
		insts:        r.insts,
		locks:        r.locks,
		space:        space,
		opts:         r.opts,
		patchT:       r.patchT,
		evictT:       r.evictT,
		patchResumes: r.patchResumes,
		noPlan:       r.noPlan,
		sigTab:       make(map[uint64]uint64),
		hint:         hint,
		arena:        ar,
		speculating:  speculating,
	}
}

// runRegion patches one region's locations in descending order,
// polling for cancellation like the sequential path.
func (r *Rewriter) runRegion(order []int) {
	// T2 and T3 emit a second trampoline; a quarter more covers the
	// densest profiles, and past it append grows as usual.
	r.presize(len(order), len(order)+len(order)/4)
	for i, idx := range order {
		if r.limited {
			return // trampoline budget exhausted; result is discarded
		}
		if i&0xFF == 0 && r.cancelled() {
			return
		}
		r.patchOne(idx)
	}
}

// presize makes room for the outcome of sites more locations and
// trampolines more trampolines, so the output slices are allocated once
// from the selection instead of doubling their way up.
func (r *Rewriter) presize(sites, trampolines int) {
	r.results = slices.Grow(r.results, sites)
	r.trampolines = slices.Grow(r.trampolines, trampolines)
	if !r.noPlan {
		r.sites = slices.Grow(r.sites, sites)
	}
	r.slabChunk = min(sites*slabBytesPerSite, maxSlabChunk)
}

// resetSpan puts a region's bytes and locks back as they were before it
// was patched: the text the rewriter was built over, and unlocked, since
// a rewriter patches once and nothing outside PatchAll locks. The span
// covers every address the region's patching can have touched, and the
// lock words it overlaps hold no other region's bits (see above).
func (r *Rewriter) resetSpan(order []int) {
	lo := r.insts[order[len(order)-1]].Addr // order is descending
	hi := r.insts[order[0]].Addr + effectReach
	o1 := r.off(lo)
	o2 := min(r.off(hi), len(r.code))
	copy(r.code[o1:o2], r.orig[o1:o2])
	clear(r.locks[o1>>6 : (o2+63)>>6])
}

// applyJournal replays one region's speculative space operations
// against the shared space. On a reservation conflict it unwinds the
// already-applied prefix and reports false; the region must be redone.
func (r *Rewriter) applyJournal(ops []spaceOp) bool {
	for i, op := range ops {
		var err error
		if op.release {
			err = r.space.Release(op.lo, op.hi)
		} else {
			err = r.space.Reserve(op.lo, op.hi)
		}
		if err == nil {
			continue
		}
		if op.release {
			// Journaled releases only cover this region's own earlier
			// reservations, which the prefix already applied.
			panic("patch: journal replay release failed: " + err.Error())
		}
		for j := i - 1; j >= 0; j-- {
			var uerr error
			if ops[j].release {
				uerr = r.space.Reserve(ops[j].lo, ops[j].hi)
			} else {
				uerr = r.space.Release(ops[j].lo, ops[j].hi)
			}
			if uerr != nil {
				panic("patch: journal unwind failed: " + uerr.Error())
			}
		}
		return false
	}
	return true
}

// patchRegions is the parallel S1 driver: speculate every region
// concurrently, then commit deterministically.
func (r *Rewriter) patchRegions(regions [][]int) {
	// Arena belt: one private arena per region, carved bottom-up above
	// the pool hint while regions descend through the text.
	arenas := make([]*arena, len(regions))
	cursor := r.hint
	for i := range regions {
		base, ok := r.space.FindFree(arenaSize, cursor, r.space.Max())
		if !ok || r.space.Reserve(base, base+arenaSize) != nil {
			// No room for a belt (pathologically full space): give back
			// what was carved and patch the regions sequentially.
			for j := 0; j < i; j++ {
				r.mustRelease(arenas[j].base, arenas[j].end)
			}
			for _, reg := range regions {
				r.runRegion(reg)
			}
			return
		}
		arenas[i] = &arena{base: base, end: base + arenaSize, ptr: base}
		cursor = base + arenaSize
	}
	beltEnd := cursor

	// Speculate: regions are byte-disjoint (guard band) and space-
	// disjoint (private clones and arenas), so they run in parallel
	// with no synchronisation beyond completion.
	subs := make([]*Rewriter, len(regions))
	work.ForEach(r.opts.Pool, r.opts.Workers, len(regions), func(i int) {
		sub := r.child(r.space.Clone(), arenas[i], beltEnd, true)
		sub.runRegion(regions[i])
		subs[i] = sub
	})

	// Commit: replay journals in descending region order; conflicts
	// redo the region against the shared space.
	for i, sub := range subs {
		if r.applyJournal(sub.journal) {
			continue
		}
		r.redone++
		r.resetSpan(regions[i])
		arenas[i].ptr = arenas[i].base
		redo := r.child(r.space, arenas[i], beltEnd, false)
		redo.runRegion(regions[i])
		subs[i] = redo
	}

	// Merge region outputs — trampolines, per-location results and
	// plan fragments alike — in patch (descending) order, so the
	// recorded plan is identical to a sequential run's.
	var nSites, nTramps int
	for _, sub := range subs {
		nSites += len(sub.results)
		nTramps += len(sub.trampolines)
	}
	r.presize(nSites, nTramps)
	for _, sub := range subs {
		r.trampBytes += sub.trampBytes
		if sub.limited || (r.opts.TrampolineBudget > 0 && r.trampBytes > r.opts.TrampolineBudget) {
			r.limited = true
		}
		for _, t := range sub.trampolines {
			t.site += int32(len(r.results))
			r.trampolines = append(r.trampolines, t)
		}
		r.results = append(r.results, sub.results...)
		r.sites = append(r.sites, sub.sites...)
		r.stats.Total += sub.stats.Total
		r.stats.Failed += sub.stats.Failed
		for t := range sub.stats.ByTactic {
			r.stats.ByTactic[t] += sub.stats.ByTactic[t]
		}
		for k, v := range sub.sigTab {
			r.sigTab[k] = v
		}
	}
}
