package patch

import "e9patch/internal/plan"

// The emit half of the rewriter. The tactic functions in tactics.go
// and evict.go only decide — compute pun windows, probe placements,
// pick victims; every committed effect (a text write, a trampoline, a
// dispatch-table entry) funnels through the methods here, which both
// mutate the working image and record the effect into the current
// site's plan entry. The recorded plan is therefore exactly the
// decision stream, and replaying it (e9patch.Apply) reproduces the
// output without re-running any decision logic.

// beginSite opens the plan record for one patch location; endSite
// seals it with the tactic outcome. Everything committed in between is
// attributed to this site. After DiscardPlan no record is opened, and
// every recording site below already guards on r.cur.
func (r *Rewriter) beginSite(addr uint64) {
	if r.noPlan {
		return
	}
	r.cur = &plan.Site{Addr: addr}
}

func (r *Rewriter) endSite(tactic Tactic) {
	if r.cur == nil {
		return
	}
	r.cur.Tactic = tactic.String()
	r.sites = append(r.sites, *r.cur)
	r.cur = nil
}

// notePad records the prefix-pad choice of the successful patch jump.
func (r *Rewriter) notePad(pad int) {
	if r.cur != nil {
		r.cur.Pad = pad
	}
}

// writeCode commits b at addr in the working image and records the
// edit. All text mutations that survive into the output go through
// here; scratch overlays used while probing (e.g. T2's hypothetical
// eviction bytes) write r.code directly and are restored before any
// decision escapes.
func (r *Rewriter) writeCode(addr uint64, b []byte) {
	o := r.off(addr)
	copy(r.code[o:o+len(b)], b)
	if r.cur != nil {
		data := make(plan.Bytes, len(b))
		copy(data, b)
		r.cur.Writes = append(r.cur.Writes, plan.Write{Addr: addr, Data: data})
	}
}

// addTrampoline appends emitted trampolines to the rewriter's output
// and to the current site's record, in the same order. Each one notes
// its site, its record, and how many branches into the text it ends
// with, for the epilogue pass: those of the instruction it displaces
// (the site, or the victim being evicted), unless it is a Raw template's
// patch trampoline, whose branches the patcher does not know.
func (r *Rewriter) addTrampoline(ts ...Trampoline) {
	for i := range ts {
		t := &ts[i]
		r.trampBytes += int64(len(t.Code))
		t.site = int32(len(r.results))
		if r.cur != nil {
			t.slot = int32(len(r.cur.Trampolines) + i)
		}
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
	if r.cur != nil {
		for _, t := range ts {
			r.cur.Trampolines = append(r.cur.Trampolines, plan.Trampoline{
				Addr: t.Addr, For: t.ForAddr, Evictee: t.Evictee, Code: plan.Bytes(t.Code),
			})
		}
	}
}

// addSigTab registers a B0 dispatch-table binding.
func (r *Rewriter) addSigTab(int3, tramp uint64) {
	r.sigTab[int3] = tramp
	if r.cur != nil {
		r.cur.SigTab = append(r.cur.SigTab, plan.SigEntry{Int3: int3, Trampoline: tramp})
	}
}

// commitJump writes the jump bytes and updates the lock state: modified
// bytes and punned bytes both lock; instruction bytes beyond the jump
// stay untouched and unlocked (Figure 1's byte 2 discussion).
func (r *Rewriter) commitJump(addr uint64, instLen int, w punWindow, jmp []byte) {
	writeLen := minI(instLen, w.jumpLen)
	r.writeCode(addr, jmp[:writeLen])
	r.lock(addr, writeLen) // modified
	if w.jumpLen > instLen {
		r.lock(addr+uint64(instLen), w.jumpLen-instLen) // punned
	}
}
