package emu

import (
	"fmt"

	"e9patch/internal/x86"
)

// Block discovery and invalidation for the ir engine (ir.go): "what
// is a block" and "when do cached decodes die" are defined here, once,
// next to the interpreter they must agree with (DESIGN.md §13).

// maxBlockInsts caps the instruction count of one translated block. It
// bounds translation latency for pathological straight-line runs and
// keeps the abort-on-flush granularity small.
const maxBlockInsts = 64

// termAttrs marks instructions that may not fall through to the next
// sequential address: they end a straight-line run.
const termAttrs = x86.AttrJump | x86.AttrCondJump | x86.AttrCall |
	x86.AttrRet | x86.AttrStop | x86.AttrInt3

// followed reports whether decodeBlock continues a block at inst's
// target: a direct jmp (rel8 or rel32) or call rel32. Both always
// transfer to one address known at decode time, so the block runs on
// through them as through straight-line code; a trampoline hop costs
// no block transition.
func followed(inst *x86.Inst) bool {
	return !inst.TwoByte && (inst.Opcode == 0xE9 || inst.Opcode == 0xEB || inst.Opcode == 0xE8)
}

// decodeBlock decodes the superblock starting at pc: up to
// maxBlockInsts instructions of straight-line runs (segments), ending
// after the first control transfer (jump, conditional jump, call, ret,
// hlt, int3) that it does not follow. It follows a direct jmp or call
// rel32 (followed) whose target is not the address of an instruction
// already in the block, so a loop never unrolls into itself. A fetch
// fault (pc on an unmapped page) or decode failure at pc itself is
// returned, formatted exactly as the interpreter's fetch would report
// it; one later in the run — after a followed transfer too — just ends
// the block early, so the error, if execution ever gets there, is
// raised lazily at the address the interpreter would raise it. end is
// the fallthrough address of the final instruction.
//
// A block also ends before any instruction after the first whose
// address is special (the exit sentinel or a bound runtime address):
// the interpreter services such an address before every fetch, the ir
// engine probes only at block boundaries, so the boundary has to be
// there. Nothing stops an image from mapping bytes over one.
func decodeBlock(m *Machine, pc uint64) (insts []x86.Inst, end uint64, err error) {
	for {
		if _, bound := m.Runtime[pc]; len(insts) > 0 && (bound || pc == m.ExitAddr) {
			break
		}
		raw, ok := m.Mem.ReadBytes(pc, 15)
		if !ok && !m.Mem.Mapped(pc) {
			if len(insts) == 0 {
				return nil, 0, fetchFault(pc)
			}
			break
		}
		inst, derr := x86.Decode(raw, pc)
		if derr != nil {
			if len(insts) == 0 {
				return nil, 0, fmt.Errorf("emu: at %#x: %w", pc, derr)
			}
			break
		}
		insts = append(insts, inst)
		end = pc + uint64(inst.Len)
		pc = end
		if len(insts) >= maxBlockInsts {
			break
		}
		if inst.Attrs&termAttrs != 0 {
			if !followed(&inst) || inBlock(insts, inst.Target()) {
				break
			}
			pc = inst.Target()
		}
	}
	return insts, end, nil
}

// inBlock reports whether addr starts one of insts.
func inBlock(insts []x86.Inst, addr uint64) bool {
	for i := range insts {
		if insts[i].Addr == addr {
			return true
		}
	}
	return false
}

// codeTracker records which pages hold translated code and turns the
// Memory write barrier into a flush signal. The engine registers it as
// the barrier (invalidate), notes the byte range of each segment of a
// translated block (track), and observes stores into translated code via flushed — which
// it checks mid-block to abort in-flight execution, exactly where the
// interpreter's per-step fetch would observe the new bytes.
type codeTracker struct {
	pages map[uint64]struct{}
	// lo and hi are the inclusive range of tracked page indices
	// (lo > hi when nothing is tracked). Code sits in a few pages and
	// data stores land elsewhere, so invalidate rejects almost every
	// store on this compare without touching the map.
	lo, hi uint64

	// flushed is set by invalidate (or flush) when tracked code dies.
	// The engine clears it after dropping chain state / aborting a block.
	flushed bool

	// probes counts the times invalidate consulted the page map: the
	// stores the range compare could not reject.
	probes uint64

	// onFlush, when non-nil, runs at each flush so the owning engine
	// can drop its block cache in the same event.
	onFlush func()
}

// newCodeTracker returns an empty tracker. fn (may be nil) runs at
// every flush, before flushed is observable by the engine loop.
func newCodeTracker(fn func()) *codeTracker {
	return &codeTracker{pages: make(map[uint64]struct{}), lo: ^uint64(0), onFlush: fn}
}

// track marks [start, end) as translated code.
func (t *codeTracker) track(start, end uint64) {
	first, last := start/PageSize, (end-1)/PageSize
	t.lo, t.hi = min(t.lo, first), max(t.hi, last)
	for p := first; p <= last; p++ {
		t.pages[p] = struct{}{}
	}
}

// invalidate is the Memory write barrier: a store into any tracked
// page flushes everything. Full flush keeps chain pointers trivially
// safe — no stale block survives to be chained into — and invalidation
// is rare, so O(cache) per flush beats per-block bookkeeping on every
// store.
func (t *codeTracker) invalidate(addr, size uint64) {
	first, last := addr/PageSize, (addr+size-1)/PageSize
	if last < t.lo || first > t.hi || size == 0 {
		return
	}
	t.probe(first, last)
}

// probe is invalidate's page-map consultation, kept out of line so
// the range compare inlines into the engine's stores.
func (t *codeTracker) probe(first, last uint64) {
	for p := first; p <= last; p++ {
		t.probes++
		if _, ok := t.pages[p]; ok {
			t.flush()
			return
		}
	}
}

// flush unconditionally drops all tracked pages, sets flushed, and
// notifies the owning engine.
func (t *codeTracker) flush() {
	clear(t.pages)
	t.lo, t.hi = ^uint64(0), 0
	t.flushed = true
	if t.onFlush != nil {
		t.onFlush()
	}
}
