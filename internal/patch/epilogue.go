package patch

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/x86"
)

// Epilogues. Every direct branch the patcher emits from trampoline code
// into the text is an exit: a trampoline's return jump, a displaced
// jcc's taken edge, the final jump of a displaced jmp or call. What runs
// at its target T is original code up to the next control transfer or
// patched site. The last pass of PatchAll replaces each exit with a copy
// of that code, walking the original instructions from T in the
// unpatched text up to a terminal:
//
//   - a patched site: a jump to its patch trampoline (or to the site
//     itself when the trampoline is out of rel32 range, or the site is
//     B0's int3), so the site's instrumentation runs exactly as if the
//     text had been reached;
//   - a jmp, jcc, call, ret, ud2 or hlt, indirect forms included:
//     emitted as EmitDisplaced emits a displaced instruction, so that its
//     direct branches are exits in turn.
//
// The pass runs once every site is final, so the terminal's site is the
// lowest patched address at or above T, found by one binary search: T
// may lie below the branch's own site, as a loop's back edge does. An
// exit whose T is a patched site is retargeted to that site's trampoline
// and copies nothing.
//
// Everything before the terminal is copied, relocated when RIP-relative.
// An evicted victim is copied like any instruction: its evictee
// trampoline is trampoline.Empty, which runs the victim and nothing
// else. The copy is all or nothing. It is dropped when no terminal lies
// within epilogueWalk bytes, at int3, int n or syscall, at an undecodable
// byte or an opcode copyable rejects, or when a relocation is out of
// range: a partial copy still ends in a far jump and saves nothing.
//
// The copy replaces a jmp in place when it is no longer, padded with
// int3. Otherwise it goes into bytes that
//
//  1. lie in the page of the branch's last byte,
//  2. are free in the address space, and
//  3. sit at page offsets that no trampoline byte, copies included, and
//     no injected byte occupies in any page.
//
// When such bytes follow the trampoline and the branch is its final jmp,
// the trampoline grows over the jmp. Otherwise the copy is an
// out-of-line block in the first run of such bytes in the page, and the
// branch goes there. (1) adds no page and (2) no overlap. By (3) no other
// block of any grouping granularity has a byte at the added block
// offsets, so every disjointness test page grouping makes comes out as
// before: placement, physical blocks, mappings and file size do not move.
//
// A block is one more trampoline of the site whose exit made it, with
// ForAddr T, and the exits to T from one page share it. A copy's
// terminal has exits of its own, so the pass is a worklist: a loop with
// no patched site ends in a block that branches to itself, and a chain
// of copies stops after epilogueHops of them.
//
// Only exits the patcher knows are rewritten: those of trampolines whose
// code ends in EmitDisplaced's emulation of the displaced instruction,
// which is every trampoline but a Raw template's (trampoline.Template).
//
// The pass stays cheap where it can do little. On a dense selection
// every page offset is taken, no copy can grow or go out of line, and an
// exit is rewritten only when T is a patched site or its code can fit in
// place, which is decided before any walk.

const (
	// epilogueWalk bounds the original bytes an epilogue copies, its
	// terminal instruction included.
	epilogueWalk = 32
	// maxTail bounds an epilogue's code: the copies, and a terminal of
	// at most 28 bytes (an indirect call: a 64-bit push and the jump).
	maxTail = epilogueWalk + 32
	// epilogueHops bounds a chain of copies, each made for an exit of
	// the one before.
	epilogueHops = 8
	// jmpLen and jccLen are the lengths of the rel32 jmp and jcc an
	// epilogue replaces.
	jmpLen = 5
	jccLen = 6
	// pageSize is the page of the placement rules.
	pageSize = 0x1000
)

// transfers are the attributes of an instruction that does not simply
// fall through to its successor.
const transfers = x86.AttrJump | x86.AttrCondJump | x86.AttrCall | x86.AttrRet | x86.AttrStop | x86.AttrInt3

// offsetSet has one bit per page offset: the 512-byte map of placement
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

// runs returns the runs of unmarked offsets, [start, end), in order.
func (s *offsetSet) runs() [][2]int {
	var out [][2]int
	if s.full() {
		return nil
	}
	for o := 0; o < pageSize; o++ {
		if s.has(o) {
			continue
		}
		start := o
		for o < pageSize && !s.has(o) {
			o++
		}
		out = append(out, [2]int{start, o})
	}
	return out
}

// Injected tells the rewriter that the output maps n bytes at addr beside
// its trampolines (an injected image, which page grouping merges like
// one): epilogues never take their page offsets. Call it before PatchAll.
func (r *Rewriter) Injected(addr uint64, n int) { r.offsets.add(addr, n) }

// siteRef is a patched site and its patch trampoline.
type siteRef struct{ addr, tramp uint64 }

// nowhere stands for "no patched site": its address is above every other.
var nowhere = siteRef{addr: ^uint64(0)}

// exitRef is an exit for the last pass: the branch at offset at of the
// code of trampoline tramp, its target x, and the number of copies that
// led to it.
type exitRef struct {
	x         uint64
	tramp, at int
	hops      uint8
}

// branches returns how many rel32 branches into the text code ends with
// when its last instruction is EmitDisplaced's emulation of in: a jcc's
// taken edge and its jmp to the successor, the one jump of an
// instruction that falls through or of a direct jmp or call, none for
// the rest, nor for a copy that ends at a patched site (in is nil).
func branches(in *x86.Inst) uint8 {
	switch {
	case in == nil:
		return 0
	case in.RelSize != 0 && in.IsJcc():
		return 2
	case in.RelSize != 0 && (in.IsJmp() || in.IsCall()), in.Attrs&transfers == 0:
		return 1
	}
	return 0
}

// branchLen returns the length of the rel32 jmp or jcc at b[0], or 0.
func branchLen(b []byte) int {
	switch {
	case len(b) >= jmpLen && b[0] == 0xE9:
		return jmpLen
	case len(b) >= jccLen && b[0] == 0x0F && b[1]&0xF0 == 0x80:
		return jccLen
	}
	return 0
}

// epiloguePass is the state of the last pass: the patched sites in
// address order, the blocks by page and target, the runs of page offsets
// free under placement rule 3 and the length of the longest, the exits
// copies made, and the buffer code is assembled in.
type epiloguePass struct {
	sites   []siteRef
	blocks  map[[2]uint64]uint64
	runs    [][2]int
	longest int
	work    []exitRef
	buf     []byte
}

// take removes the offsets [o, o+n), which lie in one run, from the
// free runs.
func (p *epiloguePass) take(o, n int) {
	i := sort.Search(len(p.runs), func(k int) bool { return p.runs[k][1] > o })
	run, rest, k := p.runs[i], [2][2]int{}, 0
	if run[0] < o {
		rest[k], k = [2]int{run[0], o}, k+1
	}
	if o+n < run[1] {
		rest[k], k = [2]int{o + n, run[1]}, k+1
	}
	p.setRuns(slices.Replace(p.runs, i, i+1, rest[:k]...))
}

// setRuns makes runs the free runs and measures the longest.
func (p *epiloguePass) setRuns(runs [][2]int) {
	p.runs, p.longest = runs, 0
	for _, run := range runs {
		p.longest = max(p.longest, run[1]-run[0])
	}
}

// above returns the lowest patched site at or above x, or nowhere. Most
// exits return just past the site whose trampolines are being visited,
// sites[hint], so the search is confined to the window around it when
// the answer lies there: 86 to 100 % of searches on the patch-dense,
// superset heap-write, kernel and jump-selection inputs. Without the
// window the pass takes 1.6 to 2.3 times as long on the five
// patch-dense inputs, 0.8 to 1.7 ms more of a 13 to 30 ms PatchAll (an
// in-process A/B of the two, alternated, on a 2-core x86-64 VM); a plain
// search over a packed []uint64 of addresses gains nothing.
func (p *epiloguePass) above(x uint64, hint int) siteRef {
	lo, hi := 0, len(p.sites)
	if a, b := max(hint-2, 0), min(hint+2, hi); (a == 0 || p.sites[a-1].addr < x) && (b == hi || p.sites[b].addr >= x) {
		lo, hi = a, b
	}
	i := lo + sort.Search(hi-lo, func(k int) bool { return p.sites[lo+k].addr >= x })
	if i == len(p.sites) {
		return nowhere
	}
	return p.sites[i]
}

// push adds the exits of trampoline tramp's code up to end, which closes
// with n branches, to the work.
func (r *Rewriter) push(p *epiloguePass, tramp, end int, n, hops uint8) {
	t := &r.trampolines[tramp]
	for at := end - jmpLen; n > 0 && at >= 0; at, n = at-jccLen, n-1 {
		m := branchLen(t.Code[at:])
		if m == 0 {
			return
		}
		x := t.Addr + uint64(at+m) + uint64(int32(binary.LittleEndian.Uint32(t.Code[at+m-4:])))
		if r.inText(x, 1) {
			p.work = append(p.work, exitRef{x: x, tramp: tramp, at: at, hops: hops})
		}
	}
}

// epilogues is the last pass of PatchAll. The trampolines' exits get
// their epilogues in the order of the sites' addresses, each
// trampoline's followed by those of the copies they made; new code goes
// into the plan record.
func (r *Rewriter) epilogues() {
	if r.limited || r.cancelled() {
		return
	}
	n := len(r.trampolines)
	p := epiloguePass{sites: make([]siteRef, 0, n), blocks: map[[2]uint64]uint64{}, buf: make([]byte, 0, 2*maxTail)}
	for i := n - 1; i >= 0; i-- {
		t := &r.trampolines[i]
		r.offsets.add(t.Addr, len(t.Code))
		if t.Evictee {
			continue
		}
		// A B0 site is reached at its int3: were its trampoline entered
		// directly, a selection of B0 sites would dispatch no signal once
		// every taken edge is an exit (TestDifferentialB0Fallback).
		tramp := t.Addr
		if _, b0 := r.sigTab[t.ForAddr]; b0 {
			tramp = t.ForAddr
		}
		p.sites = append(p.sites, siteRef{t.ForAddr, tramp})
	}
	slices.SortFunc(p.sites, func(a, b siteRef) int { return cmp.Compare(a.addr, b.addr) })
	p.setRuns(r.offsets.runs())
	site := -1 // the index in p.sites of trampoline i's site, or of the one below
	for i := n - 1; i >= 0; i-- {
		if !r.trampolines[i].Evictee {
			site++
		}
		r.push(&p, i, len(r.trampolines[i].Code), r.trampolines[i].exits, 0)
		for len(p.work) > 0 {
			e := p.work[len(p.work)-1]
			p.work = p.work[:len(p.work)-1]
			r.epilogue(&p, e, site)
		}
	}
}

// epilogue rewrites the exit e; hint is where the search for its
// terminal's site starts. The walk stops as soon as the code outgrows
// the longest it could take: a block's, the longest free run (none in a
// page the address space holds whole); a jmp's, also the jmpLen bytes it
// frees. When only those bytes are left, an exit whose code cannot end
// within them (shortEnds) is passed over without reading the text.
func (r *Rewriter) epilogue(p *epiloguePass, e exitRef, hint int) {
	tr := &r.trampolines[e.tramp]
	n := branchLen(tr.Code[e.at:])
	at := tr.Addr + uint64(e.at)
	page := (at + uint64(n) - 1) &^ (pageSize - 1)
	next := p.above(e.x, hint)
	if next.addr == e.x {
		retarget(tr.Code[e.at:e.at+n], at, next.tramp)
		return
	}
	if b, ok := p.blocks[[2]uint64{page, e.x}]; ok {
		retarget(tr.Code[e.at:e.at+n], at, b)
		return
	}
	jmp := n == jmpLen
	room := p.longest
	if room > 0 {
		if iv, ok := r.space.Floor(page); ok && iv.Hi >= page+pageSize {
			room = 0 // the page is reserved whole: no byte of it is free
		}
	}
	if jmp {
		room += jmpLen
	}
	room = min(room, maxTail)
	if e.hops >= epilogueHops || room == 0 || room == jmpLen && !endsShort(r.orig[r.off(e.x):]) {
		return
	}
	a := x86.AppendAsm(p.buf, at)
	term, ok := r.walk(&a, e.x, next, room)
	tail, err := a.Finish()
	if !ok || err != nil {
		return
	}
	if jmp && len(tail) <= jmpLen {
		copy(tr.Code[e.at:], tail)
		for i := e.at + len(tail); i < e.at+jmpLen; i++ {
			tr.Code[i] = 0xCC
		}
		r.push(p, e.tramp, e.at+len(tail), branches(term), e.hops+1)
		return
	}
	final := jmp && e.at+jmpLen == len(tr.Code)
	switch b, ok := r.place(p, page, at, final, len(tail)); {
	case !ok:
	case b == at:
		if r.claim(p, at+jmpLen, len(tail)-jmpLen) {
			r.keep(p, e.tramp, tr.Code[:e.at], tail, term, e.hops+1)
		}
	default:
		r.block(p, e, page, next, b, len(tail))
	}
}

// block assembles the n bytes of e's code out of line at b in page,
// sends e's branch there, and keeps the block for the exits to e.x from
// the page.
func (r *Rewriter) block(p *epiloguePass, e exitRef, page uint64, next siteRef, b uint64, n int) {
	a := x86.AppendAsm(p.buf, b)
	term, ok := r.walk(&a, e.x, next, n)
	code, err := a.Finish()
	if !ok || err != nil || len(code) != n || !r.claim(p, b, n) {
		return
	}
	tr := &r.trampolines[e.tramp]
	retarget(tr.Code[e.at:e.at+branchLen(tr.Code[e.at:])], tr.Addr+uint64(e.at), b)
	t := Trampoline{Addr: b, ForAddr: e.x, site: tr.site}
	if !r.noPlan {
		s := &r.sites[tr.site]
		t.slot = int32(len(s.Trampolines))
		s.Trampolines = append(s.Trampolines, plan.Trampoline{Addr: b, For: e.x})
	}
	r.trampolines = append(r.trampolines, t)
	p.blocks[[2]uint64{page, e.x}] = b
	r.keep(p, len(r.trampolines)-1, nil, code, term, e.hops+1)
}

// keep makes head and tail, in the slab, the code of trampoline i and of
// its plan record, and adds the exits of term, the code's terminal, to
// the work.
func (r *Rewriter) keep(p *epiloguePass, i int, head, tail []byte, term *x86.Inst, hops uint8) {
	r.reserveSlab(len(head) + len(tail))
	k := len(r.slab)
	r.slab = append(append(r.slab, head...), tail...)
	t := &r.trampolines[i]
	t.Code = r.slab[k:len(r.slab):len(r.slab)]
	if !r.noPlan {
		r.sites[t.site].Trampolines[t.slot].Code = plan.Bytes(t.Code)
	}
	r.push(p, i, len(t.Code), branches(term), hops)
}

// place returns where the n bytes of code for the exit at address at, a
// branch whose last byte is in page, go. Bytes may take code when they
// keep placement rules 1 to 3. When the exit is its trampoline's final
// jmp and the bytes after it may take the rest, the answer is at itself:
// the trampoline grows over the jmp. Otherwise it is the first address
// in page from which n bytes may take code, for an out-of-line block.
func (r *Rewriter) place(p *epiloguePass, page, at uint64, final bool, n int) (uint64, bool) {
	if grow, rest := at+jmpLen, uint64(n-jmpLen); final {
		for _, run := range p.runs {
			if page+uint64(run[0]) <= grow && grow+rest <= page+uint64(run[1]) && !r.space.Occupied(grow, grow+rest) {
				return at, true
			}
		}
	}
	for _, run := range p.runs {
		lo, hi := page+uint64(run[0]), page+uint64(run[1])
		for lo+uint64(n) <= hi {
			if iv, ok := r.space.Floor(lo); ok && iv.Hi > lo {
				lo = iv.Hi
			} else if iv, ok := r.space.Ceiling(lo); ok && iv.Lo < lo+uint64(n) {
				lo = iv.Hi
			} else {
				return lo, true
			}
		}
	}
	return 0, false
}

// claim takes the n bytes at addr for code: they count against the
// trampoline budget, are reserved, and take their page offsets.
func (r *Rewriter) claim(p *epiloguePass, addr uint64, n int) bool {
	if b := r.opts.TrampolineBudget; b > 0 && r.trampBytes+int64(n) > b {
		return false
	}
	if r.space.Reserve(addr, addr+uint64(n)) != nil {
		return false
	}
	p.take(int(addr%pageSize), n)
	r.trampBytes += int64(n)
	return true
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

// walk assembles into a the code that stands for the original code at
// x, p being the lowest patched site at or above x, and returns its
// terminal instruction, nil when the code ends in a jump to p. It
// reports false when something on the way cannot be copied, a site
// starts inside a copied instruction, or no terminal lies within
// epilogueWalk original bytes and room bytes of code.
func (r *Rewriter) walk(a *x86.Asm, x uint64, p siteRef, room int) (*x86.Inst, bool) {
	reach := uint64(min(room, epilogueWalk, len(r.orig)-r.off(x)))
	in := &r.victim
	for at := x; ; at += uint64(in.Len) {
		if at == p.addr {
			if reaches(a.Addr(), p.tramp) {
				a.JmpRel32(p.tramp)
			} else {
				a.JmpRel32(p.addr)
			}
			return nil, a.Err() == nil && a.Len() <= room
		}
		if at-x >= reach || x86.DecodeInto(in, r.orig[r.off(at):], at) != nil {
			return nil, false
		}
		if end := at + uint64(in.Len); end-x > reach || p.addr < end || !copyable(in) {
			return nil, false
		}
		if in.Attrs&transfers != 0 {
			return in, trampoline.EmitDisplaced(a, in) == nil && a.Len() <= room
		}
		if a.Relocate(in); a.Err() != nil || a.Len() >= room {
			return nil, false
		}
	}
}

// reaches reports whether a jmp rel32 at addr reaches target.
func reaches(addr, target uint64) bool {
	rel := int64(target) - int64(addr+jmpLen)
	return rel >= -1<<31 && rel <= 1<<31-1
}

// retarget sends the rel32 branch b, placed at addr, to target when it
// reaches.
func retarget(b []byte, addr, target uint64) {
	if reaches(addr+uint64(len(b))-jmpLen, target) {
		binary.LittleEndian.PutUint32(b[len(b)-4:], uint32(target-addr-uint64(len(b))))
	}
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
