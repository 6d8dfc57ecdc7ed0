package emu

import (
	"encoding/binary"
	"fmt"

	"e9patch/internal/x86"
)

// The ir engine is the emulator's fast execution engine: each block is
// lifted once — through decodeBlock, the shared definition of a block —
// into a linear sequence of micro-ops (Go closures), optimized per
// block, and then dispatched by threaded code with no per-instruction
// decode or switch.
//
// Three structural choices make one dispatch retire many instructions:
//
//   - Superblocks (block.go): a block runs on through a direct jmp or
//     call rel32, so a patched site's hop to its trampoline and the hop
//     back cost no block transition; a followed jump is a micro-op that
//     charges the branch and falls through.
//   - A chained inner loop (Run): each block memoizes its successors (a
//     block ending in ret or an indirect jump, the last one it had), and
//     a linked successor that fits the budget runs straight after its
//     predecessor, past the outer loop's probes.
//   - Compare+branch fusion (compile.go): a block ending in a register
//     or immediate ALU op, cmp or test and its jcc runs the pair as one
//     micro-op that reads the condition off the operands.
//
// Three block-local optimizations carry the speedup beyond caching the
// decode:
//
//   - Lazy EFLAGS (lazy.go): ALU micro-ops record only the operation
//     that last defined the flags; consumers (jcc, adc/sbb, pushfq)
//     derive exactly the bits they read, and full materialization
//     happens only at seams that demand architectural flags (runtime
//     calls, faults, the careful path, an interpreter fallback).
//   - Dead-flag elimination (compile.go): a backward liveness scan over
//     the six arithmetic flags drops even the recording store when a
//     later instruction in the same block overwrites the flags before
//     any possible consumer or early block exit.
//   - Constant effective-address folding (compile.go): registers with
//     block-entry-known constant values (mov r, imm; xor r, r; lea of
//     a constant) fold into memory-operand address computations at
//     compile time; RIP-relative operands always fold.
//
// The engine is observationally identical to the interpreter: same
// Counters and cycle model, same Trace behaviour (tracing falls back
// to the careful per-instruction path), same runtime-call / exit /
// SIGTRAP dispatch, the same errors at the same addresses with machine
// state positioned identically, and the same self-modifying code
// semantics via the codeTracker write barrier (a store into
// translated code flushes the cache and aborts the in-flight block).
// Rewritten binaries patch .text, so invalidation is
// correctness-critical, not optional. See DESIGN.md §13.

// uop is one micro-op. It returns true to fall through to the next
// micro-op in the block, or done to leave the block (control transfer,
// fault, halt, or SMC abort). Micro-ops update RIP only when leaving.
type uop func(*state) bool

// done is the uop return value that exits the block dispatch loop.
const done = false

// block is one lifted superblock (decodeBlock).
type block struct {
	start uint64
	end   uint64 // fallthrough address of the final instruction
	insts []x86.Inst

	// ops is the threaded code: ops[i] executes insts[i]; a possible
	// extra trailing epilogue op materializes the fallthrough RIP.
	ops []uop
	// full is the index of the op whose done retires the whole block:
	// the terminator, the epilogue, or a fused pair's first op. Every
	// other done leaves the block early.
	full int

	// succAddr are the block's successor addresses (the fallthrough
	// and, for a direct branch, its target); succ memoizes their lifted
	// blocks so chained transitions skip the cache map. A block whose
	// final instruction has no static target (ret, an indirect jump or
	// call, a fallback) uses slot 1 as a one-entry cache of the last
	// successor it had.
	succAddr [2]uint64
	succ     [2]*block
	dynamic  bool
}

// linked returns the memoized successor at pc, or nil.
func (b *block) linked(pc uint64) *block {
	if b.succAddr[0] == pc && b.succ[0] != nil {
		return b.succ[0]
	}
	if b.succAddr[1] == pc {
		return b.succ[1]
	}
	return nil
}

// link memoizes next as b's successor at pc.
func (b *block) link(pc uint64, next *block) {
	switch {
	case b.succAddr[0] == pc:
		b.succ[0] = next
	case b.succAddr[1] == pc || b.dynamic:
		b.succAddr[1], b.succ[1] = pc, next
	}
}

// state is the per-engine execution state threaded through micro-ops.
type state struct {
	m   *Machine
	trk *codeTracker

	// fl is the deferred flag record (lazy.go).
	fl flagRec

	// err, when set by a micro-op returning done, aborts Run.
	err error

	// Direct-mapped load/store TLBs, indexed by the low bits of the
	// page index: a kernel's stack, buffers and tables stay resident
	// together, so the steady path never asks Memory's page map. Page
	// arrays are never recycled by Memory, so caching the slice is
	// sound; the caches are reset when the engine rebinds memory.
	ld, st [tlbSize]tlbEntry
}

// tlbSize is the entry count of each TLB (a power of two).
const tlbSize = 16

// tlbEntry caches one page's backing array; pg is nil while empty.
type tlbEntry struct {
	idx uint64
	pg  *page
}

// irStats counts translation and optimization events, for tests.
type irStats struct {
	// Translations is the number of blocks lifted.
	Translations uint64
	// Lookups is the number of dispatch-loop block transitions.
	Lookups uint64
	// Chained is the subset of Lookups resolved via a chain pointer.
	Chained uint64
	// Flushes is the number of whole-cache invalidations.
	Flushes uint64
	// SpecialProbes counts the block transitions that consulted the
	// machine's Runtime map: RIP fell inside the bound-address range.
	SpecialProbes uint64
	// BarrierProbes counts the stores that consulted the tracker's
	// page map: they touched the tracked page range.
	BarrierProbes uint64
	// FastBlocks counts block executions on the threaded-code path.
	FastBlocks uint64
	// CarefulBlocks counts block executions on the per-instruction
	// fallback path (tracer installed or budget nearly exhausted).
	CarefulBlocks uint64
	// ElidedFlags counts flag-producing instructions whose flag
	// computation was removed entirely by block-local liveness.
	ElidedFlags uint64
	// FoldedEAs counts memory operands whose effective address was
	// resolved to a constant at lift time.
	FoldedEAs uint64
	// Fallbacks counts instructions lifted to the interpreter-fallback
	// micro-op: those outside the lift set.
	Fallbacks uint64
}

// irEngine is the IR-lifting execution engine. An irEngine binds to a
// single Machine's memory via the write barrier; create one per
// machine (workload.NewMachine does).
type irEngine struct {
	blocks map[uint64]*block
	trk    *codeTracker
	mem    *Memory
	st     state

	// rtN, rtLo and rtHi are the machine's runtime bindings as last
	// read (Machine.runtimeBounds): the count, and the address
	// range outside which a RIP cannot be a runtime call.
	rtN        int
	rtLo, rtHi uint64

	// Stats accumulates lift/dispatch events across Run calls.
	Stats irStats
}

// newIREngine returns an empty IR engine.
func newIREngine() *irEngine {
	e := &irEngine{blocks: make(map[uint64]*block)}
	e.trk = newCodeTracker(func() {
		clear(e.blocks)
		e.Stats.Flushes++
	})
	e.st.trk = e.trk
	return e
}

// FastBlocks returns the number of block executions on the threaded
// fast path so far (Stats.FastBlocks): the dispatches the engine paid
// for, which callers outside the package reach through an interface
// assertion on Machine.Engine.
func (e *irEngine) FastBlocks() uint64 { return e.Stats.FastBlocks }

// refreshRuntime re-reads the machine's runtime bindings. Blocks were
// cut at the addresses bound when they were lifted (decodeBlock),
// so a changed set drops them.
func (e *irEngine) refreshRuntime(m *Machine) {
	n, lo, hi := m.runtimeBounds()
	if n == e.rtN && lo == e.rtLo && hi == e.rtHi {
		return
	}
	e.rtN, e.rtLo, e.rtHi = n, lo, hi
	if len(e.blocks) > 0 {
		e.trk.flush()
	}
}

// Run implements Engine: execute until halt or budget exhaustion,
// observationally identical to the interpreter loop.
func (e *irEngine) Run(m *Machine, maxInst uint64) error {
	if e.mem != m.Mem {
		if e.mem != nil {
			e.trk.flush()
		}
		e.mem = m.Mem
		m.Mem.SetWriteBarrier(e.trk.invalidate)
		e.st.ld, e.st.st = [tlbSize]tlbEntry{}, [tlbSize]tlbEntry{}
	}
	e.refreshRuntime(m)
	e.trk.flushed = false
	defer func() { e.Stats.BarrierProbes = e.trk.probes }()

	st := &e.st
	st.m = m
	st.err = nil
	st.fl.kind = kEager // Machine.Flags is authoritative on entry

	budgetErr := func() error {
		st.materialize()
		return fmt.Errorf("%w (%d at rip=%#x)", ErrMaxInstructions, maxInst, m.RIP)
	}

	var prev *block // block whose terminator brought us here, for chaining
	for !m.Halted() {
		// Special addresses (exit sentinel, runtime calls) are block
		// boundaries by construction (decodeBlock), so probing here
		// is probing before every fetch. The steady path pays two
		// compares: the Runtime map is consulted only for a RIP inside
		// the range of bound addresses, and the flags stay lazy across
		// ordinary transitions because stepSpecial runs only when it
		// will act.
		pc := m.RIP
		special := pc == m.ExitAddr
		if !special && pc >= e.rtLo && pc <= e.rtHi {
			e.Stats.SpecialProbes++
			_, special = m.Runtime[pc]
		}
		if special {
			if m.Counters.Instructions >= maxInst {
				return budgetErr()
			}
			st.materialize()
			if _, err := m.stepSpecial(); err != nil {
				return err
			}
			// A binding is the one place the bindings can change.
			e.refreshRuntime(m)
			prev = nil
			continue
		}
		if e.trk.flushed {
			// A flush raised by the previous block (mid-block SMC
			// abort) or outside block execution (a runtime call wrote
			// into translated code): prev points into the dropped
			// generation and must not seed chaining.
			e.trk.flushed = false
			prev = nil
		}

		e.Stats.Lookups++
		var b *block
		if prev != nil {
			b = prev.linked(pc)
		}
		if b != nil {
			e.Stats.Chained++
		} else {
			// The budget outranks a decode error, as in the
			// interpreter's loop; on a chained transition the fast-path
			// condition below is the budget check.
			if m.Counters.Instructions >= maxInst {
				return budgetErr()
			}
			b = e.blocks[pc]
			if b == nil {
				var err error
				if b, err = e.compile(m, pc); err != nil {
					st.materialize()
					return err
				}
			}
			if prev != nil {
				prev.link(pc, b)
			}
		}

		if m.Trace != nil || m.Counters.Instructions+uint64(len(b.insts)) > maxInst {
			// Careful path: a tracer is installed or the budget could
			// expire mid-block (or already has: runCareful checks it
			// before each instruction). Execute per instruction through
			// execDecoded, which yields tracer-mutation and budget
			// parity with interp by construction.
			prev = b
			e.Stats.CarefulBlocks++
			st.materialize()
			if err := e.runCareful(m, b, maxInst); err != nil {
				return err
			}
			continue
		}
		// Fast path: the whole block fits in the remaining budget and
		// nobody observes per-instruction state. Threaded dispatch with
		// lazy flags, then straight on into the successor while it is
		// linked, fits and is not special: nothing between two blocks
		// can install a tracer, bind an address or flush without the
		// checks below seeing it, so the outer loop's probes would find
		// nothing.
		for {
			prev = b
			e.Stats.FastBlocks++
			// Each instruction's base cost is charged here, for the
			// whole block, and refunded for the instructions an early
			// exit leaves unretired: the op that leaves has retired its
			// own instruction (a fault or flush counts it, as in the
			// interpreter).
			n := uint64(len(b.insts))
			m.Counters.Instructions += n
			m.Counters.Cycles += n * m.Cost.ALU
			for k, op := range b.ops {
				if op(st) == done {
					if k < b.full {
						r := n - uint64(k) - 1
						m.Counters.Instructions -= r
						m.Counters.Cycles -= r * m.Cost.ALU
					}
					break
				}
			}
			if st.err != nil {
				st.materialize()
				err := st.err
				st.err = nil
				return err
			}
			pc := m.RIP
			if m.halted || e.trk.flushed || pc == m.ExitAddr || pc >= e.rtLo && pc <= e.rtHi {
				break
			}
			if b = b.linked(pc); b == nil || m.Counters.Instructions+uint64(len(b.insts)) > maxInst {
				break
			}
			e.Stats.Lookups++
			e.Stats.Chained++
		}
	}
	st.materialize()
	return nil
}

// runCareful executes b one instruction at a time through the
// interpreter's own execDecoded. On a mid-block SMC flush it returns with
// trk.flushed still set; the dispatch loop clears it and drops the
// chain seed.
func (e *irEngine) runCareful(m *Machine, b *block, maxInst uint64) error {
	for i := range b.insts {
		if m.Counters.Instructions >= maxInst {
			return fmt.Errorf("%w (%d at rip=%#x)", ErrMaxInstructions, maxInst, m.RIP)
		}
		inst := &b.insts[i]
		if m.Trace != nil {
			// The interpreter hands the tracer the same fresh decode
			// it then executes; give out a private copy so a mutating
			// tracer cannot poison the cached one.
			c := *inst
			c.Bytes = append([]byte(nil), inst.Bytes...)
			inst = &c
		}
		if err := m.execDecoded(inst); err != nil {
			return err
		}
		if m.Halted() || e.trk.flushed {
			return nil
		}
	}
	return nil
}

// fault records a wrapped execution error with machine state
// positioned exactly as the interpreter leaves it: RIP at the faulting
// instruction.
func (s *state) fault(inst *x86.Inst, err error) bool {
	s.m.RIP = inst.Addr
	s.err = fmt.Errorf("emu: at %#x (% x): %w", inst.Addr, inst.Bytes, err)
	return done
}

// load reads n little-endian bytes through the load TLB. The fault
// error names the first unmapped byte, matching Memory.read.
func (s *state) load(addr uint64, n int) (uint64, error) {
	off := addr % PageSize
	if off+uint64(n) > PageSize {
		return s.m.Mem.read(addr, n)
	}
	idx := addr / PageSize
	e := &s.ld[idx%tlbSize]
	pg := e.pg
	if pg == nil || idx != e.idx {
		if pg = s.m.Mem.pageFor(addr, false); pg == nil {
			return 0, fmt.Errorf("emu: read fault at %#x", addr)
		}
		e.idx, e.pg = idx, pg
	}
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(pg[off:]), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(pg[off:])), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(pg[off:])), nil
	default:
		return uint64(pg[off]), nil
	}
}

// store writes n little-endian bytes through the store TLB, firing
// the write barrier first (stores never fault: pages are created on
// demand, as in Memory.write).
func (s *state) store(addr uint64, v uint64, n int) {
	mem := s.m.Mem
	off := addr % PageSize
	if off+uint64(n) > PageSize {
		_ = mem.write(addr, v, n) // fires the barrier itself
		return
	}
	idx := addr / PageSize
	// The write barrier Run installed (trk.invalidate), inlined: the
	// store lies inside page idx, so one range compare rejects it.
	if t := s.trk; idx >= t.lo && idx <= t.hi {
		t.probe(idx, idx)
	}
	e := &s.st[idx%tlbSize]
	pg := e.pg
	if pg == nil || idx != e.idx {
		pg = mem.pageFor(addr, true)
		e.idx, e.pg = idx, pg
	}
	switch n {
	case 8:
		binary.LittleEndian.PutUint64(pg[off:], v)
	case 4:
		binary.LittleEndian.PutUint32(pg[off:], uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(pg[off:], uint16(v))
	default:
		pg[off] = byte(v)
	}
}

// push mirrors Machine.push: RSP moves first, then the Mem cycle,
// then the store (which cannot fault).
func (s *state) push(v uint64) {
	m := s.m
	sp := m.Regs[x86.RSP] - 8
	m.Regs[x86.RSP] = sp
	m.Counters.Cycles += m.Cost.Mem
	s.store(sp, v, 8)
}

// pop mirrors Machine.pop: the read happens (and may fault) before
// RSP moves and before the Mem cycle is charged.
func (s *state) pop() (uint64, error) {
	m := s.m
	v, err := s.load(m.Regs[x86.RSP], 8)
	if err != nil {
		return 0, err
	}
	m.Regs[x86.RSP] += 8
	m.Counters.Cycles += m.Cost.Mem
	return v, nil
}
