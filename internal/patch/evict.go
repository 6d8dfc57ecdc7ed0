package patch

import (
	"slices"

	"e9patch/internal/x86"
)

// Tactics T2 (successor eviction) and T3 (neighbour eviction). Both
// replace a victim instruction with a jump to an evictee trampoline
// that executes the displaced victim and returns — changing the
// victim's byte representation without changing its semantics, and
// thereby unlocking puns that previously failed (§3.2, §3.3).

// trySuccessorEviction implements T2. The direct successor S of the
// patch instruction is evicted with a punned jump to an evictee
// trampoline, then B2/T1 are reapplied to the patch instruction against
// S's new bytes. Placement of S's trampoline is guided: several
// candidate addresses are probed because the low bytes of S's new rel32
// become the high (most constrained) bytes of the patch jump's rel32.
func (r *Rewriter) trySuccessorEviction(inst *x86.Inst) bool {
	succAddr := inst.Addr + uint64(inst.Len)
	sIdx, ok := r.instAt(succAddr)
	if !ok {
		return false
	}
	if s := &r.insts[sIdx]; !r.inText(s.Addr, int(s.Len)) || r.anyLocked(s.Addr, int(s.Len)) {
		return false
	}
	succ := &r.victim
	r.insts[sIdx].DecodeInto(succ)
	evSize, ok := r.sizeOf(r.evictT, succ)
	if !ok {
		return false
	}

	var cands [t2Candidates]uint64
	for padS := 0; padS <= succ.Len-1; padS++ {
		wS, ok := r.computeWindow(r.code, succ.Addr, succ.Len, padS)
		if !ok {
			continue
		}
		for _, tS := range r.placementCandidates(cands[:0], uint64(evSize), wS) {
			if r.evictAndRepun(inst, succ, wS, tS, evSize) {
				return true
			}
		}
	}
	return false
}

// evictAndRepun tries one candidate evictee placement tS for the
// successor: it overlays S's hypothetical jump bytes, re-puns the patch
// instruction against them, and commits both on success.
func (r *Rewriter) evictAndRepun(inst, succ *x86.Inst, wS punWindow, tS uint64, evSize int) bool {
	oS := r.off(succ.Addr)
	jS := jumpBytes(r.code, oS, succ.Addr, succ.Len, wS, tS)

	// Temporarily overlay S's new bytes so window computation for the
	// patch instruction sees the post-eviction image; every return that
	// commits nothing puts the saved bytes back.
	overlay := r.code[oS : oS+minI(succ.Len, wS.jumpLen)]
	var saved jumpBuf
	copy(saved[:], overlay)
	copy(overlay, jS[:])

	for padI := 0; padI <= inst.Len-1; padI++ {
		wI, ok := r.computeWindow(r.code, inst.Addr, inst.Len, padI)
		if !ok {
			continue
		}
		patchSize, ok := r.patchSize()
		if !ok {
			break
		}
		tP, pCode, ok := r.allocTrampoline(r.patchT, inst, patchSize, wI)
		if !ok {
			continue
		}
		// The patch trampoline may have claimed the candidate slot.
		var evCode []byte
		ok = !r.space.Occupied(tS, tS+uint64(evSize))
		if ok {
			evCode, ok = r.emit(r.evictT, succ, tS, evSize)
		}
		if !ok || r.space.Reserve(tS, tS+uint64(evSize)) != nil {
			r.undoTrampoline(tP, pCode)
			break
		}

		// Commit: S's eviction jump, then the re-punned patch jump.
		r.commitJump(succ.Addr, succ.Len, wS, jS[:])
		jI := jumpBytes(r.code, r.off(inst.Addr), inst.Addr, inst.Len, wI, tP)
		r.commitJump(inst.Addr, inst.Len, wI, jI[:])
		r.notePad(wI.pad)
		r.addTrampoline(
			Trampoline{Addr: tS, Code: evCode, ForAddr: succ.Addr, Evictee: true},
			Trampoline{Addr: tP, Code: pCode, ForAddr: inst.Addr},
		)
		return true
	}
	copy(overlay, saved[:])
	return false
}

// t2Candidates bounds the evictee placements probed by guided successor
// eviction.
const t2Candidates = 6

// placementCandidates appends to out (empty, with room for
// t2Candidates) up to that many distinct starting addresses for an
// allocation of the given size inside the window, spread across the
// window so that the low-order address bytes vary (those bytes are what
// the dependent pun will be constrained by).
func (r *Rewriter) placementCandidates(out []uint64, size uint64, w punWindow) []uint64 {
	const n = t2Candidates
	found := 0 // duplicates count towards the bound
	add := func(c uint64) {
		found++
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	for _, c := range r.space.Gaps(size, w.winLo, w.winHi, n/3+1) {
		add(c)
	}
	if w.winHi > w.winLo {
		span := w.winHi - w.winLo
		stride := span/uint64(n) + 1
		for i := 0; i < n && found < n; i++ {
			lo := w.winLo + stride*uint64(i) + uint64(i*37)
			if lo > w.winHi {
				break
			}
			hi := lo + stride - 1
			if hi > w.winHi {
				hi = w.winHi
			}
			if c, ok := r.space.FindFree(size, lo, hi); ok {
				add(c)
			}
		}
	}
	return out
}

// tryNeighbourEviction implements T3. A victim within forward
// short-jump range is evicted; its space hosts two overlapping jumps
// J_victim (to the victim's evictee trampoline) and J_patch (to the
// patch trampoline); the patch instruction becomes a short jump to
// J_patch (§3.3, Figure 2).
func (r *Rewriter) tryNeighbourEviction(inst *x86.Inst) bool {
	if !r.inText(inst.Addr, 2) || r.anyLocked(inst.Addr, minI(inst.Len, 2)) {
		return false
	}
	idx, ok := r.instAt(inst.Addr)
	if !ok {
		return false
	}

	if inst.Len == 1 {
		// The short jump's rel8 puns the successor's first byte: only
		// one J_patch location is reachable (limitation L2).
		rel8 := r.code[r.off(inst.Addr)+1]
		if rel8 < 1 || rel8 > 127 {
			return false
		}
		jPatchAddr := inst.Addr + 2 + uint64(rel8)
		for i := idx + 1; i < len(r.insts); i++ {
			v := &r.insts[i]
			if v.Addr >= jPatchAddr {
				break
			}
			if v.Addr+uint64(v.Len) <= jPatchAddr {
				continue
			}
			j := int(jPatchAddr - v.Addr)
			if j < 1 || j > int(v.Len)-1 || v.Addr < inst.Addr+2 {
				return false
			}
			v.DecodeInto(&r.victim)
			evSize, ok := r.sizeOf(r.evictT, &r.victim)
			return ok && r.tryT3Victim(inst, &r.victim, j, evSize, true)
		}
		return false
	}

	// General case: any byte position (except the first) of any
	// unlocked victim within +127 of the short jump.
	maxAddr := inst.Addr + 2 + 127
	for i := idx + 1; i < len(r.insts); i++ {
		v := &r.insts[i]
		if v.Addr+1 > maxAddr {
			break
		}
		if v.Len < 2 || !r.inText(v.Addr, int(v.Len)) || r.anyLocked(v.Addr, int(v.Len)) {
			continue
		}
		// The victim is sized once for all its J_patch offsets (the
		// first of them, j = 1, is always in range).
		v.DecodeInto(&r.victim)
		evSize, ok := r.sizeOf(r.evictT, &r.victim)
		if !ok {
			continue
		}
		for j := int(v.Len) - 1; j >= 1; j-- {
			jPatchAddr := v.Addr + uint64(j)
			rel := int64(jPatchAddr) - int64(inst.Addr) - 2
			if rel < 1 || rel > 127 {
				continue
			}
			if r.tryT3Victim(inst, &r.victim, j, evSize, false) {
				return true
			}
		}
	}
	return false
}

// tryT3Victim attempts neighbour eviction with a specific victim v and
// J_patch offset j within it.
func (r *Rewriter) tryT3Victim(inst, v *x86.Inst, j, evSize int, punnedRel8 bool) bool {
	if r.anyLocked(v.Addr, v.Len) {
		return false
	}
	jPatchAddr := v.Addr + uint64(j)

	// Step (a): J_patch — a punned jump written inside the victim.
	// Its modifiable region is the victim's tail [j, len); fixed bytes
	// come from whatever follows the victim.
	wP, ok := r.computeWindow(r.code, jPatchAddr, v.Len-j, 0)
	if !ok {
		return false
	}
	patchSize, ok := r.patchSize()
	if !ok {
		return false
	}
	tP, pCode, ok := r.allocTrampoline(r.patchT, inst, patchSize, wP)
	if !ok {
		return false
	}
	oP := r.off(jPatchAddr)
	jP := jumpBytes(r.code, oP, jPatchAddr, v.Len-j, wP, tP)

	// Overlay J_patch so J_victim's window sees its bytes.
	overlay := r.code[oP : oP+minI(v.Len-j, wP.jumpLen)]
	var saved jumpBuf
	copy(saved[:], overlay)
	copy(overlay, jP[:])

	// Step (c): J_victim — a punned jump at the victim's first byte;
	// its modifiable region is [0, j) (J_patch bytes are now fixed).
	wV, okV := r.computeWindow(r.code, v.Addr, j, 0)
	var tV uint64
	var evCode []byte
	if okV {
		tV, evCode, okV = r.allocTrampoline(r.evictT, v, evSize, wV)
	}
	if !okV {
		copy(overlay, saved[:])
		r.undoTrampoline(tP, pCode)
		return false
	}

	// Commit all three jumps.
	r.commitJump(jPatchAddr, v.Len-j, wP, jP[:])
	jV := jumpBytes(r.code, r.off(v.Addr), v.Addr, j, wV, tV)
	r.commitJump(v.Addr, j, wV, jV[:])

	// Step (b): the short jump replacing the patch instruction.
	if punnedRel8 {
		// rel8 is the successor's punned first byte: write only the
		// opcode and lock both.
		r.writeCode(inst.Addr, []byte{0xEB})
	} else {
		r.writeCode(inst.Addr, []byte{0xEB, byte(jPatchAddr - inst.Addr - 2)})
	}
	r.lock(inst.Addr, 2)

	r.addTrampoline(
		Trampoline{Addr: tP, Code: pCode, ForAddr: inst.Addr},
		Trampoline{Addr: tV, Code: evCode, ForAddr: v.Addr, Evictee: true},
	)
	return true
}
