package patch

import (
	"encoding/binary"

	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/x86"
)

// Epilogues. A trampoline ends in a far jump back into the text, to R,
// the displaced instruction's successor. What runs at R is original code
// up to the next control transfer or patched site. The last pass of
// PatchAll replaces the return jump with a copy of that code, walking the
// original instructions from R in the unpatched text up to a terminal:
//
//   - a patched site: a jump to its patch trampoline (or to the site
//     itself when the trampoline is out of rel32 range), so the site's
//     instrumentation runs exactly as if the text had been reached;
//   - a jmp, jcc, call, ret, ud2 or hlt, indirect forms included:
//     emitted as EmitDisplaced emits a displaced instruction.
//
// Everything before the terminal is copied, relocated when RIP-relative.
// An evicted victim is copied like any instruction: its evictee
// trampoline is trampoline.Empty, which runs the victim and nothing
// else. The copy is all or nothing. It is dropped when no terminal lies
// within epilogueWalk bytes, at int3, int n or syscall, at an undecodable
// byte or an opcode copyable rejects, or when a relocation is out of
// range: a partial copy still ends in a far jump and saves nothing.
//
// The new code replaces the jump in place when it is no longer, padded
// with int3. Otherwise the trampoline grows, and only into bytes that
//
//  1. lie in the page of its last byte,
//  2. are free in the address space, and
//  3. sit at page offsets that no trampoline byte, grown ones included,
//     and no injected byte occupies in any page.
//
// (1) adds no page and (2) no overlap. By (3) no other block of any
// grouping granularity has a byte at the added block offsets, so every
// disjointness test page grouping makes comes out as before: placement,
// physical blocks, mappings and file size do not move.
//
// Only exits the patcher knows are rewritten: those of trampolines whose
// last instruction is EmitDisplaced's return jump, which is every
// trampoline but a Raw template's (trampoline.Template). A Raw
// trampoline is left as emitted, and so is the trampoline of a jmp, call
// or ret, which does not return to R.
//
// The pass stays cheap where it can do little, as on a dense selection
// that leaves no page offset to grow into: what an exit needs from the
// text at R is found as its trampoline is committed, while that text was
// just read, and the growth rules are checked before a walk, which stops
// as soon as its code could not fit.

const (
	// epilogueWalk bounds the original bytes an epilogue copies, its
	// terminal instruction included.
	epilogueWalk = 32
	// maxTail bounds an epilogue's code: the copies, and a terminal of
	// at most 28 bytes (an indirect call: a 64-bit push and the jump).
	maxTail = epilogueWalk + 32
	// jmpLen is the length of the jmp rel32 an epilogue replaces.
	jmpLen = 5
	// pageSize is the page of the growth rules.
	pageSize = 0x1000
)

// transfers are the attributes of an instruction that does not simply
// fall through to its successor.
const transfers = x86.AttrJump | x86.AttrCondJump | x86.AttrCall | x86.AttrRet | x86.AttrStop | x86.AttrInt3

// offsetSet has one bit per page offset: the 512-byte map of growth
// rule 3.
type offsetSet [pageSize / 64]uint64

// add marks the offsets of [addr, addr+n), which may cross pages.
func (s *offsetSet) add(addr uint64, n int) {
	n = min(n, pageSize)
	for o := int(addr % pageSize); n > 0; {
		w, mask, k := lockSpan(o, n)
		s[w] |= mask
		o, n = (o+k)%pageSize, n-k
	}
}

// full reports whether every offset is marked.
func (s *offsetSet) full() bool {
	for _, w := range s {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// has reports whether offset o is marked.
func (s *offsetSet) has(o int) bool { return s[o>>6]>>(o&63)&1 != 0 }

// Injected tells the rewriter that the output maps n bytes at addr beside
// its trampolines (an injected image, which page grouping merges like
// one): epilogues never grow into their page offsets. Call it before
// PatchAll.
func (r *Rewriter) Injected(addr uint64, n int) { r.offsets.add(addr, n) }

// siteRef is a patched site and its patch trampoline.
type siteRef struct{ addr, tramp uint64 }

// nowhere stands for "no patched site": its address is above every other.
// The zero siteRef stands for "not known yet".
var nowhere = siteRef{addr: ^uint64(0)}

// exitRef is a return jump left for the last pass: its destination x,
// next, the site patched just before the trampoline's own (under S1 the
// lowest patched address above it), whether the code at x could end in
// place, and where the trampoline is: its index, its site's index in
// results and the plan record, its place among the site's trampolines.
type exitRef struct {
	x                   uint64
	next                siteRef
	short               bool
	tramp, result, slot int
}

// noteExit starts the epilogue of t, the slot'th trampoline of the
// current site, about to be appended to trampolines; in is the
// instruction it displaces. It runs while the text at the exit was just
// read. Only a return jump the patcher knows is taken: t is an evictee
// trampoline or not a Raw template's, and in falls through or is a jcc,
// so that EmitDisplaced ends t with a jmp rel32 to in's successor. An
// exit onto the site patched last is retargeted to that site's
// trampoline at once; any other waits for the last pass.
func (r *Rewriter) noteExit(t *Trampoline, in *x86.Inst, slot int) {
	c := t.Code
	if !t.Evictee && !r.patchResumes || in.Attrs&transfers != 0 && !in.IsJcc() ||
		len(c) < jmpLen || c[len(c)-jmpLen] != 0xE9 {
		return
	}
	x, at := exitOf(t), t.Addr+uint64(len(c)-jmpLen)
	if x != in.Addr+uint64(in.Len) || !r.inText(x, 1) {
		return
	}
	if x == r.last.addr && reaches(at, r.last.tramp) {
		binary.LittleEndian.PutUint32(c[len(c)-4:], uint32(r.last.tramp-at-jmpLen))
		return
	}
	r.exits = append(r.exits, exitRef{x: x, next: r.last, short: endsShort(r.orig[r.off(x):]),
		tramp: len(r.trampolines), result: len(r.results), slot: slot})
}

// exitOf returns where the jmp rel32 that ends tr goes.
func exitOf(tr *Trampoline) uint64 {
	c := tr.Code
	return tr.Addr + uint64(len(c)) + uint64(int32(binary.LittleEndian.Uint32(c[len(c)-4:])))
}

// epilogues is the last pass of PatchAll: every exit noteExit left gets
// its epilogue, in patch order, and grown code goes into the plan record.
func (r *Rewriter) epilogues() {
	if len(r.exits) == 0 || r.limited || r.cancelled() {
		return
	}
	for i := range r.trampolines {
		r.offsets.add(r.trampolines[i].Addr, len(r.trampolines[i].Code))
	}
	// A walk stops within an instruction of room, so this never grows.
	buf := make([]byte, 0, 2*maxTail)
	full := r.offsets.full()
	for _, e := range r.exits {
		// An exit above e.next is an evicted victim's: the lowest patched
		// site above it is not at hand. With every page offset taken no
		// trampoline grows, so an exit that cannot end in place is passed
		// over without touching its trampoline.
		if e.x > e.next.addr || full && !e.short && e.x != e.next.addr {
			continue
		}
		tr := &r.trampolines[e.tramp]
		if r.epilogue(tr, e, buf) && !r.noPlan {
			r.sites[e.result].Trampolines[e.slot].Code = plan.Bytes(tr.Code)
		}
	}
}

// epilogue replaces the return jump of tr to e.x, which lies at or below
// e.next: the exit is the displaced instruction's successor, so e.next is
// the lowest patched site at or above it. It reports whether tr grew,
// that is, has new Code.
//
// A tail that must fit in place is a jump to a patched site at the exit,
// or ends in a ret, jmp, ud2 or hlt whose opcode byte lies among the
// first five bytes there (e.short), so other exits that cannot grow are
// passed over without reading the text. The code is assembled in buf.
func (r *Rewriter) epilogue(tr *Trampoline, e exitRef, buf []byte) bool {
	x, next := e.x, e.next
	jmp := len(tr.Code) - jmpLen
	at := tr.Addr + uint64(jmp)
	if x == next.addr {
		if reaches(at, next.tramp) {
			binary.LittleEndian.PutUint32(tr.Code[jmp+1:], uint32(next.tramp-at-jmpLen))
		}
		return false
	}
	room := r.room(tr)
	if room == jmpLen && !e.short {
		return false
	}
	a := x86.AppendAsm(buf, at)
	ok := r.walk(&a, x, next, min(room, epilogueWalk, len(r.orig)-r.off(x)), room)
	tail, err := a.Finish()
	if !ok || err != nil {
		return false
	}
	if len(tail) > jmpLen {
		return r.grow(tr, tail)
	}
	for i := jmp + copy(tr.Code[jmp:], tail); i < len(tr.Code); i++ {
		tr.Code[i] = 0xCC
	}
	return false
}

// room returns the longest epilogue tr can take: the jump it replaces,
// plus the bytes after tr that the three growth rules allow.
func (r *Rewriter) room(tr *Trampoline) int {
	end := tr.Addr + uint64(len(tr.Code))
	n := 0
	if o := int(end % pageSize); o != 0 { // else tr's last byte ends its page
		for n < maxTail-jmpLen && o+n < pageSize && !r.offsets.has(o+n) {
			n++
		}
	}
	if n > 0 {
		if iv, ok := r.space.Floor(end); ok && iv.Hi > end {
			n = 0
		} else if iv, ok := r.space.Ceiling(end); ok {
			n = min(n, int(iv.Lo-end))
		}
	}
	return jmpLen + n
}

// shortEnds marks the opcode bytes a tail of at most jmpLen bytes can end
// with when it is not a jump to a patched site: ret, jmp, ud2 (0F 0B)
// and hlt.
var shortEnds = [256]bool{0xC2: true, 0xC3: true, 0xCA: true, 0xCB: true, 0xCF: true,
	0xE9: true, 0xEB: true, 0xFF: true, 0x0F: true, 0xF4: true}

// endsShort reports whether such a tail can be the code at code[0]: its
// terminal's opcode byte is then among the first jmpLen.
func endsShort(code []byte) bool {
	for _, b := range code[:min(len(code), jmpLen)] {
		if shortEnds[b] {
			return true
		}
	}
	return false
}

// walk assembles into a the epilogue that replaces a jump to x: the
// original instructions from x to a terminal, p being the lowest patched
// site above x. It reports false when something on the way cannot be
// copied, a site starts inside a copied instruction, or no terminal lies
// within reach original bytes and room bytes of code.
func (r *Rewriter) walk(a *x86.Asm, x uint64, p siteRef, reach, room int) bool {
	in := &r.victim
	for at := x; ; at += uint64(in.Len) {
		if at == p.addr {
			if reaches(a.Addr(), p.tramp) {
				a.JmpRel32(p.tramp)
			} else {
				a.JmpRel32(p.addr)
			}
			return a.Err() == nil && a.Len() <= room
		}
		if at-x >= uint64(reach) || x86.DecodeInto(in, r.orig[r.off(at):], at) != nil {
			return false
		}
		if end := at + uint64(in.Len); end-x > uint64(reach) || p.addr < end || !copyable(in) {
			return false
		}
		if in.Attrs&transfers != 0 {
			return trampoline.EmitDisplaced(a, in) == nil && a.Len() <= room
		}
		if a.Relocate(in); a.Err() != nil || a.Len() >= room {
			return false
		}
	}
}

// reaches reports whether a jmp rel32 at addr reaches target.
func reaches(addr, target uint64) bool {
	rel := int64(target) - int64(addr+jmpLen)
	return rel >= -1<<31 && rel <= 1<<31-1
}

// copyable reports whether in may run from an epilogue. Not int3, int n,
// int1 or syscall: each leaves the address it runs at where a handler or
// the kernel reads it. Not loop/jrcxz, which has no rel32 form. Not the
// opcodes whose length the decoder has no outside confirmation for
// (TestObjdumpAgreement's miss list: 0F 01, 0F 38, 0F 3A, VEX C4/C5).
func copyable(in *x86.Inst) bool {
	if in.Attrs&x86.AttrInt3 != 0 {
		return false
	}
	if in.TwoByte {
		return in.Opcode != 0x01 && in.Opcode != 0x05 && in.Opcode != 0x38 && in.Opcode != 0x3A
	}
	switch in.Opcode {
	case 0xC4, 0xC5, 0xCD, 0xF1, 0xE0, 0xE1, 0xE2, 0xE3:
		return false
	}
	return true
}

// grow extends tr by the bytes of its epilogue beyond the jump it
// replaces, which room has found free under the three growth rules, and
// assembles the grown trampoline into the slab.
func (r *Rewriter) grow(tr *Trampoline, tail []byte) bool {
	jmp := len(tr.Code) - jmpLen
	extra := len(tail) - jmpLen
	end := tr.Addr + uint64(len(tr.Code))
	if b := r.opts.TrampolineBudget; b > 0 && r.trampBytes+int64(extra) > b {
		return false
	}
	if r.space.Reserve(end, end+uint64(extra)) != nil {
		return false
	}
	r.offsets.add(end, extra)
	r.trampBytes += int64(extra)
	r.reserveSlab(jmp + len(tail))
	n := len(r.slab)
	r.slab = append(append(r.slab, tr.Code[:jmp]...), tail...)
	tr.Code = r.slab[n:len(r.slab):len(r.slab)]
	return true
}
