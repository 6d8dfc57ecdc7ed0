package emu

import (
	"fmt"

	"e9patch/internal/x86"
)

// This file is the block-discovery and invalidation seam for engines
// that cache decoded code (internal/emu/ir): "what is a block" and
// "when do cached decodes die" are defined here, once, next to the
// interpreter they must agree with (DESIGN.md §6).

// MaxBlockInsts caps the instruction count of one translated block. It
// bounds translation latency for pathological straight-line runs and
// keeps the abort-on-flush granularity small.
const MaxBlockInsts = 64

// TermAttrs marks instructions that may not fall through to the next
// sequential address: they terminate a block.
const TermAttrs = x86.AttrJump | x86.AttrCondJump | x86.AttrCall |
	x86.AttrRet | x86.AttrStop | x86.AttrInt3

// DecodeBlock decodes the straight-line run starting at pc: up to
// MaxBlockInsts instructions, ending after the first control transfer
// (jump, conditional jump, call, ret, hlt, int3). A decode failure at
// pc itself is returned, formatted exactly as the interpreter's fetch
// would report it; a failure later in the run just ends the block
// early, so the error — if execution ever falls through to it — is
// raised lazily at the address the interpreter would raise it. end is
// the address one past the final decoded instruction.
//
// A block also ends before any instruction after the first whose
// address is special (the exit sentinel or a bound runtime address):
// the interpreter services such an address before every fetch, block
// engines probe only at block boundaries, so the boundary has to be
// there. Nothing stops an image from mapping bytes over one.
func DecodeBlock(m *Machine, pc uint64) (insts []x86.Inst, end uint64, err error) {
	for {
		if _, bound := m.Runtime[pc]; len(insts) > 0 && (bound || pc == m.ExitAddr) {
			break
		}
		raw, _ := m.Mem.ReadBytes(pc, 15)
		inst, derr := x86.Decode(raw, pc)
		if derr != nil {
			if len(insts) == 0 {
				return nil, 0, fmt.Errorf("emu: at %#x: %w", pc, derr)
			}
			break
		}
		insts = append(insts, inst)
		pc += uint64(inst.Len)
		if inst.Attrs&TermAttrs != 0 || len(insts) >= MaxBlockInsts {
			break
		}
	}
	return insts, pc, nil
}

// CodeTracker records which pages hold translated code and turns the
// Memory write barrier into a flush signal. Engines register it as the
// barrier (Invalidate), note each translated block's byte range
// (Track), and observe stores into translated code via Flushed — which
// they check mid-block to abort in-flight execution, exactly where the
// interpreter's per-step fetch would observe the new bytes.
type CodeTracker struct {
	pages map[uint64]struct{}
	// lo and hi are the inclusive range of tracked page indices
	// (lo > hi when nothing is tracked). Code sits in a few pages and
	// data stores land elsewhere, so Invalidate rejects almost every
	// store on this compare without touching the map.
	lo, hi uint64

	// Flushed is set by Invalidate (or Flush) when tracked code dies.
	// Engines clear it after dropping chain state / aborting a block.
	Flushed bool

	// Probes counts the times Invalidate consulted the page map: the
	// stores the range compare could not reject.
	Probes uint64

	// onFlush, when non-nil, runs at each flush so the owning engine
	// can drop its block cache in the same event.
	onFlush func()
}

// NewCodeTracker returns an empty tracker. fn (may be nil) runs at
// every flush, before Flushed is observable by the engine loop.
func NewCodeTracker(fn func()) *CodeTracker {
	return &CodeTracker{pages: make(map[uint64]struct{}), lo: ^uint64(0), onFlush: fn}
}

// Track marks [start, end) as translated code.
func (t *CodeTracker) Track(start, end uint64) {
	first, last := start/PageSize, (end-1)/PageSize
	t.lo, t.hi = min(t.lo, first), max(t.hi, last)
	for p := first; p <= last; p++ {
		t.pages[p] = struct{}{}
	}
}

// Invalidate is the Memory write barrier: a store into any tracked
// page flushes everything. Full flush keeps chain pointers trivially
// safe — no stale block survives to be chained into — and invalidation
// is rare, so O(cache) per flush beats per-block bookkeeping on every
// store.
func (t *CodeTracker) Invalidate(addr, size uint64) {
	first, last := addr/PageSize, (addr+size-1)/PageSize
	if last < t.lo || first > t.hi || size == 0 {
		return
	}
	for p := first; p <= last; p++ {
		t.Probes++
		if _, ok := t.pages[p]; ok {
			t.Flush()
			return
		}
	}
}

// Flush unconditionally drops all tracked pages, sets Flushed, and
// notifies the owning engine.
func (t *CodeTracker) Flush() {
	clear(t.pages)
	t.lo, t.hi = ^uint64(0), 0
	t.Flushed = true
	if t.onFlush != nil {
		t.onFlush()
	}
}
