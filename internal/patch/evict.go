package patch

import "e9patch/internal/x86"

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
	evSize, err := r.opts.EvictionTemplate.Size(succ)
	if err != nil {
		return false
	}
	patchSize, err := r.opts.Template.Size(inst)
	if err != nil {
		return false
	}

	for padS := 0; padS <= succ.Len-1; padS++ {
		wS, ok := r.computeWindow(r.code, succ.Addr, succ.Len, padS)
		if !ok {
			continue
		}
		for _, tS := range r.placementCandidates(uint64(evSize), wS) {
			if r.evictAndRepun(inst, succ, wS, tS, evSize, patchSize) {
				return true
			}
		}
	}
	return false
}

// evictAndRepun tries one candidate evictee placement tS for the
// successor: it overlays S's hypothetical jump bytes, re-puns the patch
// instruction against them, and commits both on success.
func (r *Rewriter) evictAndRepun(inst, succ *x86.Inst, wS punWindow, tS uint64, evSize, patchSize int) bool {
	oS := r.off(succ.Addr)
	jS := jumpBytes(r.code, oS, succ.Addr, succ.Len, wS, tS)

	// Temporarily overlay S's new bytes so window computation for the
	// patch instruction sees the post-eviction image.
	writeLen := minI(succ.Len, wS.jumpLen)
	saved := make([]byte, writeLen)
	copy(saved, r.code[oS:oS+writeLen])
	copy(r.code[oS:oS+writeLen], jS[:writeLen])
	restore := func() { copy(r.code[oS:oS+writeLen], saved) }

	for padI := 0; padI <= inst.Len-1; padI++ {
		wI, ok := r.computeWindow(r.code, inst.Addr, inst.Len, padI)
		if !ok {
			continue
		}
		tP, pCode, fromArena, ok := r.allocTrampoline(r.opts.Template, inst, patchSize, wI)
		if !ok {
			continue
		}
		// The patch trampoline may have claimed the candidate slot.
		if r.space.Occupied(tS, tS+uint64(evSize)) {
			r.undoTrampoline(tP, patchSize, fromArena)
			restore()
			return false
		}
		evCode, err := r.opts.EvictionTemplate.Emit(succ, tS)
		if err != nil || len(evCode) != evSize {
			r.undoTrampoline(tP, patchSize, fromArena)
			restore()
			return false
		}
		if err := r.reserveVA(tS, tS+uint64(evSize)); err != nil {
			r.undoTrampoline(tP, patchSize, fromArena)
			restore()
			return false
		}

		// Commit: S's eviction jump, then the re-punned patch jump.
		r.commitJump(succ.Addr, succ.Len, wS, jS)
		jI := jumpBytes(r.code, r.off(inst.Addr), inst.Addr, inst.Len, wI, tP)
		r.commitJump(inst.Addr, inst.Len, wI, jI)
		r.notePad(wI.pad)
		r.addTrampoline(
			Trampoline{Addr: tS, Code: evCode, ForAddr: succ.Addr, Evictee: true},
			Trampoline{Addr: tP, Code: pCode, ForAddr: inst.Addr},
		)
		return true
	}
	restore()
	return false
}

// placementCandidates returns up to T2Candidates starting addresses for
// an allocation of the given size inside the window, spread across the
// window so that the low-order address bytes vary (those bytes are what
// the dependent pun will be constrained by).
func (r *Rewriter) placementCandidates(size uint64, w punWindow) []uint64 {
	n := r.opts.T2Candidates
	out := r.space.Gaps(size, w.winLo, w.winHi, n/3+1)
	if w.winHi > w.winLo {
		span := w.winHi - w.winLo
		stride := span/uint64(n) + 1
		for i := 0; i < n && len(out) < n; i++ {
			lo := w.winLo + stride*uint64(i) + uint64(i*37)
			if lo > w.winHi {
				break
			}
			hi := lo + stride - 1
			if hi > w.winHi {
				hi = w.winHi
			}
			if c, ok := r.space.FindFree(size, lo, hi); ok {
				out = append(out, c)
			}
		}
	}
	// Deduplicate while preserving order.
	seen := make(map[uint64]bool, len(out))
	uniq := out[:0]
	for _, c := range out {
		if !seen[c] {
			seen[c] = true
			uniq = append(uniq, c)
		}
	}
	if len(uniq) > n {
		uniq = uniq[:n]
	}
	return uniq
}

// tryNeighbourEviction implements T3. A victim within forward
// short-jump range is evicted; its space hosts two overlapping jumps
// J_victim (to the victim's evictee trampoline) and J_patch (to the
// patch trampoline); the patch instruction becomes a short jump to
// J_patch (§3.3, Figure 2).
func (r *Rewriter) tryNeighbourEviction(inst *x86.Inst) bool {
	patchSize, err := r.opts.Template.Size(inst)
	if err != nil {
		return false
	}
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
			return r.tryT3Victim(inst, &r.victim, j, patchSize, true)
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
		v.DecodeInto(&r.victim)
		for j := int(v.Len) - 1; j >= 1; j-- {
			jPatchAddr := v.Addr + uint64(j)
			rel := int64(jPatchAddr) - int64(inst.Addr) - 2
			if rel < 1 || rel > 127 {
				continue
			}
			if r.tryT3Victim(inst, &r.victim, j, patchSize, false) {
				return true
			}
		}
	}
	return false
}

// tryT3Victim attempts neighbour eviction with a specific victim v and
// J_patch offset j within it.
func (r *Rewriter) tryT3Victim(inst, v *x86.Inst, j, patchSize int, punnedRel8 bool) bool {
	if r.anyLocked(v.Addr, v.Len) {
		return false
	}
	evSize, err := r.opts.EvictionTemplate.Size(v)
	if err != nil {
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
	tP, pCode, fromArena, ok := r.allocTrampoline(r.opts.Template, inst, patchSize, wP)
	if !ok {
		return false
	}
	jP := jumpBytes(r.code, r.off(jPatchAddr), jPatchAddr, v.Len-j, wP, tP)

	// Overlay J_patch so J_victim's window sees its bytes.
	oP := r.off(jPatchAddr)
	writeLenP := minI(v.Len-j, wP.jumpLen)
	saved := make([]byte, writeLenP)
	copy(saved, r.code[oP:oP+writeLenP])
	copy(r.code[oP:oP+writeLenP], jP[:writeLenP])

	// Step (c): J_victim — a punned jump at the victim's first byte;
	// its modifiable region is [0, j) (J_patch bytes are now fixed).
	wV, okV := r.computeWindow(r.code, v.Addr, j, 0)
	var tV uint64
	var evCode []byte
	if okV {
		tV, evCode, _, okV = r.allocTrampoline(r.opts.EvictionTemplate, v, evSize, wV)
	}
	if !okV {
		copy(r.code[oP:oP+writeLenP], saved)
		r.undoTrampoline(tP, patchSize, fromArena)
		return false
	}

	// Commit all three jumps.
	r.commitJump(jPatchAddr, v.Len-j, wP, jP)
	jV := jumpBytes(r.code, r.off(v.Addr), v.Addr, j, wV, tV)
	r.commitJump(v.Addr, j, wV, jV)

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
