package patch

import (
	"e9patch/internal/trampoline"
	"e9patch/internal/x86"
)

// Trampoline code lives in a slab: every template assembles straight
// into the rewriter's buffer, so a trampoline costs no object of its
// own, and the returned Code is clipped to its length so that an append
// by a consumer copies instead of running into the neighbour.

const (
	// slabHeadroom is kept free before a measurement so that no
	// trampoline of ordinary size reallocates while measured.
	slabHeadroom = 256
	// slabBytesPerSite sizes a slab chunk from the selection (an empty
	// trampoline is the displaced instruction plus a 5-byte jump);
	// chunks stay within [minSlabChunk, maxSlabChunk].
	slabBytesPerSite = 16
	minSlabChunk     = 1 << 10
	maxSlabChunk     = 1 << 18
)

// reserveSlab makes room for n more bytes, opening a new chunk when the
// current one is full. Code already handed out keeps its old chunk.
func (r *Rewriter) reserveSlab(n int) {
	if cap(r.slab)-len(r.slab) < n {
		r.slab = make([]byte, 0, max(n, r.slabChunk, minSlabChunk))
	}
}

// sizeOf returns the size of t's trampoline for inst. It is measured by
// assembling it at the instruction's own address (always within
// relocation range) into the slab's free tail, which is then simply not
// kept.
func (r *Rewriter) sizeOf(t trampoline.Template, inst *x86.Inst) (int, bool) {
	r.reserveSlab(slabHeadroom)
	code, err := t.AppendCode(r.slab, inst, inst.Addr)
	return len(code) - len(r.slab), err == nil
}

// sizeState says whether the current site's patch template has been
// sized yet, and whether that worked.
type sizeState uint8

const (
	unsized sizeState = iota
	sized
	unsizable
)

// patchSize returns the patch template's size for the site inside
// patchOne, asking the template the first time only.
func (r *Rewriter) patchSize() (int, bool) {
	if r.siteSized == unsized {
		n, ok := r.sizeOf(r.patchT, &r.site)
		r.siteSize, r.siteSized = n, unsizable
		if ok {
			r.siteSized = sized
		}
	}
	return r.siteSize, r.siteSized == sized
}

// emit assembles t's trampoline for inst at address at. It fails when
// the template does, or when the code is not size bytes long.
func (r *Rewriter) emit(t trampoline.Template, inst *x86.Inst, at uint64, size int) ([]byte, bool) {
	r.reserveSlab(size)
	n := len(r.slab)
	out, err := t.AppendCode(r.slab, inst, at)
	if err != nil || len(out)-n != size {
		return nil, false
	}
	r.slab = out
	return out[n:len(out):len(out)], true
}

// unemit gives back the slab bytes of an uncommitted trampoline when
// they are still the last emitted, so a site that backs out of many
// T2/T3 attempts does not grow the slab with each.
func (r *Rewriter) unemit(code []byte) {
	if n := len(r.slab) - len(code); len(code) > 0 && n >= 0 && &r.slab[n] == &code[0] {
		r.slab = r.slab[:n]
	}
}
