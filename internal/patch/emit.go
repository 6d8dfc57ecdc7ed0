package patch

import (
	"bytes"
	"cmp"
	"math"
	"slices"

	"e9patch/internal/e9err"
	"e9patch/internal/plan"
)

// The emit half of the rewriter. The tactic functions in tactics.go
// and evict.go only decide — compute pun windows, probe placements,
// pick victims; every committed effect (a text write, a trampoline, a
// dispatch-table binding) funnels through the methods here, which
// commit it and record it once, tagged with the location inside
// patchOne. The record reads as the patched image (Code, Trampolines,
// SigTab) or as the decision stream (Sites), which Replay inverts.

// span is one committed text write: n bytes at offset off of the
// patched text. Committed bytes are locked, so a span's bytes are final
// once PatchAll ends.
type span struct{ off, n uint32 }

// siteEnd is a location's pad and the end of its writes in r.writes.
type siteEnd struct{ writes, pad int32 }

// binding is a B0 dispatch-table binding of the location site.
type binding struct {
	int3, tramp uint64
	site        int32
}

// checkTextSize panics on a text a span cannot address.
func checkTextSize(text []byte) {
	if uint64(len(text)) > math.MaxUint32 {
		panic("patch: text section larger than 4 GiB")
	}
}

// endSite closes the record of the location at addr with its outcome:
// every effect committed since the previous location closed is its.
func (r *Rewriter) endSite(addr uint64, tactic Tactic) {
	r.results = append(r.results, LocResult{Addr: addr, Tactic: tactic})
	r.ends = append(r.ends, siteEnd{writes: int32(len(r.writes)), pad: r.pad})
}

// notePad records the prefix-pad choice of the successful patch jump.
func (r *Rewriter) notePad(pad int) { r.pad = int32(pad) }

// writeCode commits b at addr in the working image and records the
// edit. All text mutations that survive into the output go through
// here; scratch overlays used while probing (e.g. T2's hypothetical
// eviction bytes) write r.code directly and are restored before any
// decision escapes.
func (r *Rewriter) writeCode(addr uint64, b []byte) {
	o := r.off(addr)
	copy(r.code[o:o+len(b)], b)
	r.writes = append(r.writes, span{off: uint32(o), n: uint32(len(b))})
}

// addTrampoline appends emitted trampolines to the rewriter's output.
// Each one notes its site and how many branches into the text it ends
// with, for the epilogue pass: those of the instruction it displaces
// (the site, or the victim being evicted), unless it is a Raw template's
// patch trampoline, whose branches the patcher does not know.
func (r *Rewriter) addTrampoline(ts ...Trampoline) {
	for i := range ts {
		t := &ts[i]
		r.trampBytes += int64(len(t.Code))
		t.site = int32(len(r.results))
		switch {
		case t.Evictee:
			t.exits = branches(&r.victim)
		case r.patchResumes:
			t.exits = branches(&r.site)
		}
		r.trampolines = append(r.trampolines, *t)
	}
	if r.opts.TrampolineBudget > 0 && r.trampBytes > r.opts.TrampolineBudget {
		r.limited = true
	}
}

// bind registers a B0 dispatch-table binding.
func (r *Rewriter) bind(int3, tramp uint64) {
	r.bindings = append(r.bindings, binding{int3: int3, tramp: tramp, site: int32(len(r.results))})
}

// commitJump writes the jump bytes and updates the lock state: modified
// bytes and punned bytes both lock; instruction bytes beyond the jump
// stay untouched and unlocked (Figure 1's byte 2 discussion).
func (r *Rewriter) commitJump(addr uint64, instLen int, w punWindow, jmp []byte) {
	writeLen := min(instLen, w.jumpLen)
	r.writeCode(addr, jmp[:writeLen])
	r.lock(addr, writeLen) // modified
	if w.jumpLen > instLen {
		r.lock(addr+uint64(instLen), w.jumpLen-instLen) // punned
	}
}

// Sites reads the record as plan entries, one per location in patch
// order: its tactic and pad, its writes, its trampolines (its own, then
// the epilogue pass's blocks for its exits) and its B0 bindings. The
// writes' bytes are copied into one buffer, so a plan does not hold the
// patched text; trampoline code is shared.
func (r *Rewriter) Sites() []plan.Site {
	n := 0
	for _, w := range r.writes {
		n += int(w.n)
	}
	data, writes := make(plan.Bytes, 0, n), make([]plan.Write, len(r.writes))
	for i, w := range r.writes {
		data = append(data, r.code[w.off:w.off+w.n]...)
		writes[i] = plan.Write{Addr: r.textAddr + uint64(w.off), Data: data[len(data)-int(w.n) : len(data) : len(data)]}
	}
	sites := make([]plan.Site, len(r.results))
	w := 0
	for i, l := range r.results {
		sites[i] = plan.Site{Addr: l.Addr, Tactic: l.Tactic.String(), Pad: int(r.ends[i].pad)}
		if e := int(r.ends[i].writes); e > w {
			sites[i].Writes, w = writes[w:e:e], e
		}
	}
	// A stable sort by site puts the epilogue pass's blocks, listed last,
	// after their site's own trampolines. Then trampolines, like
	// bindings, come in per-site runs, which each element extends.
	byS := slices.Clone(r.trampolines)
	slices.SortStableFunc(byS, func(a, b Trampoline) int { return cmp.Compare(a.site, b.site) })
	trs := make([]plan.Trampoline, len(byS))
	for k, t := range byS {
		trs[k] = plan.Trampoline{Addr: t.Addr, For: t.ForAddr, Evictee: t.Evictee, Code: t.Code}
		s := &sites[t.site]
		s.Trampolines = trs[k-len(s.Trampolines) : k+1 : k+1]
	}
	sig := make([]plan.SigEntry, len(r.bindings))
	for k, b := range r.bindings {
		sig[k] = plan.SigEntry{Int3: b.int3, Trampoline: b.tramp}
		s := &sites[b.site]
		s.SigTab = sig[k-len(s.SigTab) : k+1 : k+1]
	}
	return sites
}

// Replay is the inverse of Sites: it rebuilds the record of sites over
// text, the unpatched text section at textAddr, committing each site's
// writes to a copy of text. No decision runs, and the Rewriter it
// returns is read-only: PatchAll panics. A site whose tactic is
// unknown, one of whose writes leaves the text or one of whose
// trampolines wraps the address space is ErrMalformed.
func Replay(text []byte, textAddr uint64, sites []plan.Site) (*Rewriter, error) {
	checkTextSize(text)
	r := &Rewriter{code: bytes.Clone(text), textAddr: textAddr, patched: true}
	r.results, r.ends = slices.Grow(r.results, len(sites)), slices.Grow(r.ends, len(sites)) // nil if empty, as live
	for i := range sites {
		s := &sites[i]
		tactic, ok := tacticFromName(s.Tactic)
		if !ok {
			return nil, e9err.MalformedAt("apply", s.Addr, "e9patch: plan site: unknown tactic %q", s.Tactic)
		}
		for _, wr := range s.Writes {
			if !r.inText(wr.Addr, len(wr.Data)) {
				return nil, e9err.MalformedAt("apply", wr.Addr, "e9patch: plan write of %d bytes outside .text", len(wr.Data))
			}
			r.writeCode(wr.Addr, wr.Data)
		}
		for _, tr := range s.Trampolines {
			if tr.Addr+uint64(len(tr.Code)) < tr.Addr {
				return nil, e9err.MalformedAt("apply", tr.Addr, "e9patch: plan trampoline wraps the address space")
			}
			r.trampolines = append(r.trampolines, Trampoline{Addr: tr.Addr, Code: tr.Code, ForAddr: tr.For, Evictee: tr.Evictee, site: int32(i)})
		}
		for _, se := range s.SigTab {
			r.bind(se.Int3, se.Trampoline)
		}
		r.pad = int32(s.Pad)
		r.endSite(s.Addr, tactic)
	}
	return r, nil
}
