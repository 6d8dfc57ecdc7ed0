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
func DecodeBlock(m *Machine, pc uint64) (insts []x86.Inst, end uint64, err error) {
	for {
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

	// Flushed is set by Invalidate (or Flush) when tracked code dies.
	// Engines clear it after dropping chain state / aborting a block.
	Flushed bool

	// Flushes counts whole-cache invalidations across the tracker's
	// lifetime.
	Flushes uint64

	// onFlush, when non-nil, runs at each flush so the owning engine
	// can drop its block cache in the same event.
	onFlush func()
}

// NewCodeTracker returns an empty tracker. fn (may be nil) runs at
// every flush, before Flushed is observable by the engine loop.
func NewCodeTracker(fn func()) *CodeTracker {
	return &CodeTracker{pages: make(map[uint64]struct{}), onFlush: fn}
}

// Track marks [start, end) as translated code.
func (t *CodeTracker) Track(start, end uint64) {
	for p := start / PageSize; p <= (end-1)/PageSize; p++ {
		t.pages[p] = struct{}{}
	}
}

// Invalidate is the Memory write barrier: a store into any tracked
// page flushes everything. Full flush keeps chain pointers trivially
// safe — no stale block survives to be chained into — and invalidation
// is rare, so O(cache) per flush beats per-block bookkeeping on every
// store.
func (t *CodeTracker) Invalidate(addr, size uint64) {
	if len(t.pages) == 0 || size == 0 {
		return
	}
	for p := addr / PageSize; p <= (addr+size-1)/PageSize; p++ {
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
	t.Flushed = true
	t.Flushes++
	if t.onFlush != nil {
		t.onFlush()
	}
}
