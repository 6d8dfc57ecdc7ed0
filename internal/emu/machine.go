// Package emu is an x86-64 user-mode emulator for the instruction
// subset produced by the workload generator and the trampoline
// compiler. It substitutes for the paper's hardware testbed: relative
// runtime overheads (Table 1 Time%, Figures 4 and 5) are measured by
// executing original and patched programs on identical inputs under a
// documented cycle model.
//
// Two engines run a Machine. The decode-per-step interpreter (exec.go)
// is the reference semantics; the ir engine (ir.go, compile.go,
// lazy.go) lifts each basic block once into threaded micro-ops and is
// held to the interpreter by internal/emu/enginetest. The lifted code
// calls the interpreter's own register-write, branch-accounting, flag
// and memory helpers rather than copies of them.
//
// The emulator also models the B0 baseline: executing int3 dispatches
// through a SIGTRAP table at a large fixed cost, reproducing the
// "orders of magnitude" slowdown of signal-based patching (§2.1.1).
package emu

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"e9patch/internal/x86"
)

// RFLAGS bit positions.
const (
	FlagCF uint64 = 1 << 0
	FlagPF uint64 = 1 << 2
	FlagAF uint64 = 1 << 4
	FlagZF uint64 = 1 << 6
	FlagSF uint64 = 1 << 7
	FlagDF uint64 = 1 << 10
	FlagOF uint64 = 1 << 11

	// flagsAlways is the always-set reserved bit 1 plus IF.
	flagsAlways uint64 = 1<<1 | 1<<9
)

// CostModel assigns cycle weights to dynamic events. The defaults are
// calibrated so that the *shape* of the paper's overhead results holds;
// see DESIGN.md §2 for the substitution rationale.
type CostModel struct {
	// ALU is the base cost of any instruction.
	ALU uint64
	// Mem is the surcharge for each memory access.
	Mem uint64
	// BranchTaken is the surcharge for a taken near branch.
	BranchTaken uint64
	// FarJump is the surcharge for a taken branch whose target is more
	// than FarDistance away (trampoline hops: icache/BTB pressure).
	FarJump uint64
	// FarDistance is the near/far threshold in bytes.
	FarDistance uint64
	// CallRet is the surcharge for call and ret.
	CallRet uint64
	// Mul is the surcharge for multiplies.
	Mul uint64
	// Signal is the cost of an int3 → SIGTRAP → handler round trip
	// (B0 patching).
	Signal uint64
	// Runtime is the flat cost of a runtime (libc-analogue) call.
	Runtime uint64
}

// DefaultCost returns the calibrated default cost model.
func DefaultCost() CostModel {
	return CostModel{
		ALU:         1,
		Mem:         1,
		BranchTaken: 1,
		FarJump:     5,
		FarDistance: 1 << 12,
		CallRet:     1,
		Mul:         2,
		Signal:      3000,
		Runtime:     40,
	}
}

// PageSize is the emulated page size.
const PageSize = 0x1000

type page [PageSize]byte

// pageRange is an inclusive range of page indices.
type pageRange struct{ lo, hi uint64 }

// Memory is a sparse paged address space.
type Memory struct {
	pages map[uint64]*page
	// resv are the zero-fill reservations Map recorded: sorted,
	// disjoint and non-adjacent. A reserved page is mapped — it reads
	// as zero and does not fault — but gets its backing array only at
	// first touch, so a stack or a .bss costs what the program uses.
	resv []pageRange
	// barrier, when non-nil, runs before any byte in [addr, addr+size)
	// is modified. The ir engine hooks it to invalidate blocks decoded
	// from pages that are written (self-modifying code).
	barrier func(addr, size uint64)
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{pages: make(map[uint64]*page)} }

// reserved reports whether Map covered page idx.
func (m *Memory) reserved(idx uint64) bool {
	i := sort.Search(len(m.resv), func(k int) bool { return m.resv[k].hi >= idx })
	return i < len(m.resv) && m.resv[i].lo <= idx
}

// pageFor returns the page holding addr, materialising it when it is
// reserved or create is set; nil means unmapped.
func (m *Memory) pageFor(addr uint64, create bool) *page {
	idx := addr / PageSize
	p := m.pages[idx]
	if p == nil && (create || m.reserved(idx)) {
		p = new(page)
		m.pages[idx] = p
	}
	return p
}

// Mapped reports whether the page containing addr exists or is
// reserved.
func (m *Memory) Mapped(addr uint64) bool {
	return m.pages[addr/PageSize] != nil || m.reserved(addr/PageSize)
}

// Map reserves the pages covering [addr, addr+size) as zero-fill
// memory. Reservations that overlap or touch coalesce, so a bump
// allocator's per-call Map extends one range.
func (m *Memory) Map(addr, size uint64) {
	lo, hi := addr/PageSize, (addr+size-1)/PageSize
	if size == 0 || hi < lo {
		return
	}
	// r[i:j] are the ranges [lo, hi] overlaps or touches.
	r := m.resv
	i := sort.Search(len(r), func(k int) bool { return r[k].hi+1 >= lo })
	j := i
	for ; j < len(r) && r[j].lo <= hi+1; j++ {
		lo, hi = min(lo, r[j].lo), max(hi, r[j].hi)
	}
	m.resv = slices.Replace(r, i, j, pageRange{lo, hi})
}

// SetWriteBarrier installs fn to run before every store (nil removes
// it). At most one barrier is active per Memory; the last caller wins.
func (m *Memory) SetWriteBarrier(fn func(addr, size uint64)) { m.barrier = fn }

// WriteBytes copies b into memory, mapping pages as needed.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	if m.barrier != nil && len(b) > 0 {
		m.barrier(addr, uint64(len(b)))
	}
	for len(b) > 0 {
		p := m.pageFor(addr, true)
		off := addr % PageSize
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadBytes reads n bytes; unmapped bytes read as zero and set ok=false.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, bool) {
	out := make([]byte, n)
	ok := true
	for i := 0; i < n; {
		p := m.pageFor(addr+uint64(i), false)
		off := (addr + uint64(i)) % PageSize
		span := PageSize - int(off)
		if span > n-i {
			span = n - i
		}
		if p == nil {
			ok = false
		} else {
			copy(out[i:i+span], p[off:])
		}
		i += span
	}
	return out, ok
}

func (m *Memory) read(addr uint64, n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		p := m.pageFor(addr+uint64(i), false)
		if p == nil {
			return 0, fmt.Errorf("emu: read fault at %#x", addr+uint64(i))
		}
		v |= uint64(p[(addr+uint64(i))%PageSize]) << (8 * uint(i))
	}
	return v, nil
}

func (m *Memory) write(addr uint64, v uint64, n int) error {
	if m.barrier != nil {
		m.barrier(addr, uint64(n))
	}
	for i := 0; i < n; i++ {
		p := m.pageFor(addr+uint64(i), true)
		p[(addr+uint64(i))%PageSize] = byte(v >> (8 * uint(i)))
	}
	return nil
}

// DiffMemory compares two address spaces byte for byte and returns the
// address of the first differing byte. Unmapped pages read as zero, so
// a mapped all-zero page equals an unmapped one, and a reserved page
// nobody touched equals both: engines that merely materialise pages
// differently do not spuriously diverge. The second result is false
// when the spaces are identical.
func DiffMemory(a, b *Memory) (uint64, bool) {
	seen := make(map[uint64]struct{}, len(a.pages)+len(b.pages))
	idx := make([]uint64, 0, len(a.pages)+len(b.pages))
	for i := range a.pages {
		seen[i] = struct{}{}
		idx = append(idx, i)
	}
	for i := range b.pages {
		if _, ok := seen[i]; !ok {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(x, y int) bool { return idx[x] < idx[y] })
	for _, i := range idx {
		pa, _ := a.ReadBytes(i*PageSize, PageSize)
		pb, _ := b.ReadBytes(i*PageSize, PageSize)
		for off := 0; off < PageSize; off++ {
			if pa[off] != pb[off] {
				return i*PageSize + uint64(off), true
			}
		}
	}
	return 0, false
}

// RuntimeFn is a native runtime-call implementation. Arguments follow
// the SysV convention (rdi, rsi, rdx, rcx); the result goes to rax.
type RuntimeFn func(m *Machine) error

// Event counters for overhead attribution.
type Counters struct {
	// Instructions is the dynamic instruction count.
	Instructions uint64
	// Cycles is the modelled cycle count.
	Cycles uint64
	// TakenBranches counts taken branches.
	TakenBranches uint64
	// FarJumps counts taken branches beyond FarDistance.
	FarJumps uint64
	// Signals counts int3 dispatches (B0).
	Signals uint64
	// RuntimeCalls counts native runtime calls.
	RuntimeCalls uint64
}

// Engine is a pluggable execution strategy for Run. A nil Engine is
// the decode-per-step interpreter; "ir" (NewEngineByName, ir.go) is
// the block-lifting engine. Engines must be observationally identical
// to the interpreter: same Counters, Trace callbacks, runtime-call,
// SIGTRAP and error behaviour.
type Engine interface {
	// Run executes until halt or until the machine's dynamic
	// instruction count reaches maxInst, mirroring Machine.Run.
	Run(m *Machine, maxInst uint64) error
}

// Machine is one emulated hart plus its memory and runtime bindings.
type Machine struct {
	Regs  [16]uint64
	RIP   uint64
	Flags uint64
	Mem   *Memory

	// Engine, when non-nil, replaces the interpreter loop in Run.
	Engine Engine

	Cost     CostModel
	Counters Counters

	// Runtime maps magic call-target addresses to native functions.
	Runtime map[uint64]RuntimeFn
	// SigTab maps int3 addresses to trampoline addresses (B0).
	SigTab map[uint64]uint64

	// Output collects values the program emits via the write runtime
	// call; differential tests compare it.
	Output []uint64

	// Trace, when non-nil, is invoked before each instruction executes
	// (debugging and instrumentation-verification hook).
	Trace func(inst *x86.Inst)

	// ExitAddr is the sentinel return address that halts the machine.
	ExitAddr uint64
	// ExitCode is the value of rax at halt.
	ExitCode uint64

	halted bool
}

// Common machine errors.
var (
	// ErrMaxInstructions reports that the step budget was exhausted.
	ErrMaxInstructions = errors.New("emu: instruction budget exhausted")
	// ErrUd2 reports execution of ud2 (used for enforced hardening
	// violations).
	ErrUd2 = errors.New("emu: ud2 executed")
)

// ExitSentinel is the default halting return address.
const ExitSentinel uint64 = 0xE9E9_DEAD_0000

// NewMachine returns a machine with empty memory and default costs.
func NewMachine() *Machine {
	return &Machine{
		Mem:      NewMemory(),
		Cost:     DefaultCost(),
		Flags:    flagsAlways,
		Runtime:  make(map[uint64]RuntimeFn),
		SigTab:   make(map[uint64]uint64),
		ExitAddr: ExitSentinel,
	}
}

// Halted reports whether the machine has stopped.
func (m *Machine) Halted() bool { return m.halted }

// SetupStack maps a stack and pushes the exit sentinel so that the
// program's final ret halts the machine.
func (m *Machine) SetupStack(top uint64, size uint64) {
	m.Mem.Map(top-size, size)
	sp := top - 8
	_ = m.Mem.write(sp, m.ExitAddr, 8)
	m.Regs[x86.RSP] = sp
}

// Reg returns a register value.
func (m *Machine) Reg(r x86.Reg) uint64 { return m.Regs[r] }

// Run executes until halt or until maxInst instructions have retired.
func (m *Machine) Run(maxInst uint64) error {
	if m.Engine != nil {
		return m.Engine.Run(m, maxInst)
	}
	for !m.halted {
		if m.Counters.Instructions >= maxInst {
			return fmt.Errorf("%w (%d at rip=%#x)", ErrMaxInstructions, maxInst, m.RIP)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
