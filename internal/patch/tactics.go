package patch

import (
	"e9patch/internal/trampoline"
	"e9patch/internal/x86"
)

// padPrefix returns the i-th redundant jump prefix byte. Index 0 is a
// REX prefix (ignored by jmp rel32); later indices cycle through the
// segment-override prefixes, which are equally meaningless on a
// relative jump (§3.1).
func padPrefix(i int) byte {
	if i == 0 {
		return 0x48
	}
	segs := [...]byte{0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65}
	return segs[(i-1)%len(segs)]
}

// punWindow describes one candidate jump placement: a pad-byte count
// and the contiguous interval of reachable trampoline targets induced
// by the bytes the jump cannot change.
type punWindow struct {
	pad       int    // redundant prefix bytes
	jumpLen   int    // pad + 5
	freeBytes int    // choosable low rel32 bytes
	winLo     uint64 // lowest reachable target (clamped to >= 0)
	winHi     uint64 // highest reachable target
}

// computeWindow derives the pun window for a jump with the given
// padding placed at addr over an instruction of length instLen, reading
// fixed bytes from view (the current code image). It returns ok=false
// when the placement is impossible (out of text, negative-only
// targets, or a locked byte in the modified region).
func (r *Rewriter) computeWindow(view []byte, addr uint64, instLen, pad int) (punWindow, bool) {
	w := punWindow{pad: pad, jumpLen: pad + 5}
	if pad < 0 || pad > instLen-1 {
		return w, false
	}
	w.freeBytes = instLen - pad - 1
	if w.freeBytes > 4 {
		w.freeBytes = 4
	}
	// The jump must fit inside the text image (its punned tail reads
	// successor bytes).
	if !r.inText(addr, maxI(w.jumpLen, instLen)) {
		return w, false
	}
	// Modified bytes [addr, addr+min(instLen, jumpLen)) must be
	// unlocked. (Punned bytes beyond the instruction may be locked:
	// their values are final, which is exactly what a pun needs.)
	if r.anyLocked(addr, minI(instLen, w.jumpLen)) {
		return w, false
	}

	end := addr + uint64(w.jumpLen)
	k := 4 - w.freeBytes
	if k == 0 {
		// Unconstrained: the full rel32 range.
		lo := int64(end) - (1 << 31)
		hi := int64(end) + (1<<31 - 1)
		if hi < 0 {
			return w, false
		}
		if lo < 0 {
			lo = 0
		}
		w.winLo, w.winHi = uint64(lo), uint64(hi)
		return w, true
	}

	// Fixed high bytes come from the bytes following the instruction.
	var fixed uint32
	base := r.off(addr) + pad + 1 + w.freeBytes
	for i := 0; i < k; i++ {
		fixed |= uint32(view[base+i]) << (8 * uint(w.freeBytes+i))
	}
	relLo := int32(fixed)
	span := int64(1) << (8 * uint(w.freeBytes))
	lo := int64(end) + int64(relLo)
	hi := lo + span - 1
	if hi < 0 {
		return w, false // entirely below address zero
	}
	if lo < 0 {
		lo = 0
	}
	w.winLo, w.winHi = uint64(lo), uint64(hi)
	return w, true
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// maxJumpLen is the longest jump a tactic writes: a 15-byte
// instruction (the architectural limit) admits 14 pad bytes before the
// 5-byte jump.
const maxJumpLen = 14 + 5

// jumpBuf holds one encoded jump; its first punWindow.jumpLen bytes are
// meaningful. It is a value so that encoding a jump allocates nothing.
type jumpBuf [maxJumpLen]byte

// jumpBytes encodes the (possibly padded, possibly punned) jump placed
// at addr targeting target. Only the first min(instLen, jumpLen) bytes
// are written by the caller; the tail must already hold the punned
// values, which this function asserts.
func jumpBytes(view []byte, off int, addr uint64, instLen int, w punWindow, target uint64) (out jumpBuf) {
	for i := 0; i < w.pad; i++ {
		out[i] = padPrefix(i)
	}
	out[w.pad] = 0xE9
	rel := uint32(int32(int64(target) - int64(addr) - int64(w.jumpLen)))
	for i := 0; i < 4; i++ {
		out[w.pad+1+i] = byte(rel >> (8 * uint(i)))
	}
	// Punned tail bytes must agree with the existing code.
	for i := instLen; i < w.jumpLen; i++ {
		if out[i] != view[off+i] {
			panic("patch: pun mismatch — window computation out of sync")
		}
	}
	return out
}

// allocTrampoline finds space for size bytes inside [winLo, winHi],
// emits the template there and reserves the range. Unconstrained
// windows use the bump hint for dense packing; constrained (punned)
// windows use a deterministic jitter so trampolines spread across
// page offsets — without it every pun lands at its window's lowest
// address and physical page grouping cannot merge anything (§4).
func (r *Rewriter) allocTrampoline(tmpl trampoline.Template, inst *x86.Inst, size int, w punWindow) (t uint64, code []byte, ok bool) {
	usize := uint64(size)
	unconstrained := w.freeBytes == 4
	switch {
	case unconstrained:
		if r.hint >= w.winLo && r.hint <= w.winHi {
			t, ok = r.space.FindFree(usize, r.hint, w.winHi)
		}
	case w.winHi > w.winLo+usize:
		span := w.winHi - w.winLo - usize
		jitter := mix64(w.winLo^inst.Addr) % span
		t, ok = r.space.FindFree(usize, w.winLo+jitter, w.winHi)
	}
	if !ok {
		t, ok = r.space.FindFree(usize, w.winLo, w.winHi)
	}
	if !ok {
		return 0, nil, false
	}
	if code, ok = r.emit(tmpl, inst, t, size); !ok {
		return 0, nil, false
	}
	// FindFree left the space's finger at this gap, so the reservation
	// of the range it found does not search for the position again.
	if err := r.space.Reserve(t, t+usize); err != nil {
		r.unemit(code)
		return 0, nil, false
	}
	if unconstrained {
		r.hint = t + usize
	}
	return t, code, true
}

// undoTrampoline backs out an uncommitted allocTrampoline result; a
// failed release is a state-tracking bug.
func (r *Rewriter) undoTrampoline(t uint64, code []byte) {
	r.unemit(code)
	if err := r.space.Release(t, t+uint64(len(code))); err != nil {
		panic("patch: inconsistent release: " + err.Error())
	}
}

// mix64 is a splitmix64-style hash for deterministic placement jitter.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// tryJumpPad attempts a single pun placement (one padding value) for
// the patch instruction, allocating its trampoline on success. The
// window comes first: the template is sized only once some window
// admits a placement at all.
func (r *Rewriter) tryJumpPad(inst *x86.Inst, pad int) bool {
	w, ok := r.computeWindow(r.code, inst.Addr, inst.Len, pad)
	if !ok {
		return false
	}
	size, ok := r.patchSize()
	if !ok {
		return false
	}
	t, code, ok := r.allocTrampoline(r.patchT, inst, size, w)
	if !ok {
		return false
	}
	jmp := jumpBytes(r.code, r.off(inst.Addr), inst.Addr, inst.Len, w, t)
	r.commitJump(inst.Addr, inst.Len, w, jmp[:])
	r.notePad(w.pad)
	r.addTrampoline(Trampoline{Addr: t, Code: code, ForAddr: inst.Addr})
	return true
}

// tryPunnedJump implements B1 (instLen >= 5: unconstrained) and B2
// (punned, no padding).
func (r *Rewriter) tryPunnedJump(inst *x86.Inst) bool {
	return r.tryJumpPad(inst, 0)
}

// tryPaddedJump implements T1: one extra attempt per padding byte.
// Padding cannot help instructions of length >= 5 (the pad-0 window is
// already unconstrained), nor single-byte instructions (no room).
func (r *Rewriter) tryPaddedJump(inst *x86.Inst) bool {
	if inst.Len >= 5 {
		return false
	}
	for pad := 1; pad <= inst.Len-1; pad++ {
		if r.tryJumpPad(inst, pad) {
			return true
		}
	}
	return false
}

// tryInt3 implements B0: replace the first byte with int3 and register
// the trampoline in the SIGTRAP dispatch table.
func (r *Rewriter) tryInt3(inst *x86.Inst) bool {
	if r.anyLocked(inst.Addr, 1) {
		return false
	}
	size, ok := r.patchSize()
	if !ok {
		return false
	}
	w := punWindow{freeBytes: 4, winLo: r.space.Min(), winHi: r.space.Max() - 1}
	t, code, ok := r.allocTrampoline(r.patchT, inst, size, w)
	if !ok {
		return false
	}
	r.writeCode(inst.Addr, []byte{0xCC})
	r.lock(inst.Addr, 1)
	r.addSigTab(inst.Addr, t)
	r.addTrampoline(Trampoline{Addr: t, Code: code, ForAddr: inst.Addr})
	return true
}
