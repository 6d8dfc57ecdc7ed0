// Package workload builds the synthetic binaries that stand in for the
// paper's evaluation targets (SPEC2006, Ubuntu system binaries, Google
// Chrome, FireFox/libxul). See DESIGN.md §2: the rewriter consumes only
// machine-code bytes and instruction boundaries, so coverage, size and
// overhead results emerge from the same algorithms the paper runs, on
// inputs with matched geometry (size, PIE-ness, .bss, instruction mix).
//
// Two kinds of programs are produced:
//
//   - static profiles (BuildStatic): large, deterministic, compiler-like
//     instruction streams for the Table 1 patching statistics;
//   - runnable kernels (BuildKernel, BuildDromaeo): executable programs
//     for the Time% / Figure 4 / Figure 5 measurements, run under the
//     emulator before and after rewriting.
package workload

import (
	"fmt"

	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/x86"
)

// Well-known runtime-call addresses (the libc boundary). They sit far
// outside every pun window, and are additionally reserved during
// rewriting.
const (
	RTOutput uint64 = 0x2_0000_0000
	RTMalloc uint64 = 0x2_0000_0100
	RTFree   uint64 = 0x2_0000_0200
	RTExit   uint64 = 0x2_0000_0300

	// HeapBase/HeapSize locate the emulated heap.
	HeapBase uint64 = 0x4_0000_0000
	HeapSize uint64 = 0x1000_0000

	// StackTop is the initial stack pointer region.
	StackTop  uint64 = 0x7FFF_FFF0_0000
	StackSize uint64 = 0x40_0000
)

// ReserveVA returns the address ranges a rewrite of workload binaries
// must keep free of trampolines.
func ReserveVA() [][2]uint64 {
	return [][2]uint64{
		{RTOutput &^ 0xFFF, (RTExit + 0x1000) &^ 0xFFF},
		{HeapBase, HeapBase + HeapSize},
		{StackTop - StackSize, StackTop},
	}
}

// Program is a built synthetic binary plus its runtime contract.
type Program struct {
	// Name identifies the profile or kernel.
	Name string
	// ELF is the binary image.
	ELF []byte
	// PIE records position independence.
	PIE bool
}

// buildELF wraps the assembler output into an ELF binary.
func buildELF(name string, pie bool, text []byte, data []byte, bss uint64) (*Program, error) {
	return buildELFShared(name, pie, false, text, data, bss)
}

// buildELFShared is buildELF with the .so switch: shared builds an
// ET_DYN image with a zero entry point — a plain shared library rather
// than a PIE executable.
func buildELFShared(name string, pie, shared bool, text []byte, data []byte, bss uint64) (*Program, error) {
	raw, err := elf64.Build(elf64.BuildSpec{
		PIE:      pie,
		Shared:   shared,
		Text:     text,
		EntryOff: 0,
		Data:     data,
		BSSSize:  bss,
	})
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return &Program{Name: name, ELF: raw, PIE: pie || shared}, nil
}

// MallocBinding selects the allocator bound at RTMalloc.
type MallocBinding func(m *emu.Machine)

// BindStandard binds the plain bump allocator (the glibc analogue).
func BindStandard(m *emu.Machine) {
	emu.BindMalloc(m, RTMalloc, emu.NewBumpAllocator(HeapBase, HeapSize))
	emu.BindNop(m, RTFree)
}

// Engine selects the execution engine NewMachine installs, by
// name (emu.EngineNames): "ir" (the block-lifting engine, the default)
// or "interp" (the decode-per-step interpreter, the oracle ir is held
// to). The engines are observationally identical — they only differ in
// speed — so every measurement is engine-invariant; cmd/e9bench's
// -engine flag sets this.
var Engine = "ir"

// NewMachine prepares a machine with the standard runtime bindings and
// stack. The caller loads a binary and sets RIP.
func NewMachine(bind MallocBinding) *emu.Machine {
	m := emu.NewMachine()
	eng, err := emu.NewEngineByName(Engine)
	if err != nil {
		panic(err) // Engine is set programmatically; a bad name is a bug
	}
	m.Engine = eng
	emu.BindOutput(m, RTOutput)
	emu.BindExit(m, RTExit)
	if bind == nil {
		bind = BindStandard
	}
	bind(m)
	m.SetupStack(StackTop, StackSize)
	return m
}

// rng is a small deterministic PRNG (splitmix64) so profiles are
// reproducible across runs and platforms.
type rng struct{ s uint64 }

func newRNG(seed string) *rng {
	// FNV-1a over the seed string.
	h := uint64(14695981039346656037)
	for i := 0; i < len(seed); i++ {
		h ^= uint64(seed[i])
		h *= 1099511628211
	}
	return &rng{s: h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pick returns an index according to integer weights.
func (r *rng) pick(weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	v := r.intn(total)
	for i, w := range weights {
		if v < w {
			return i
		}
		v -= w
	}
	return len(weights) - 1
}

// callRT emits a runtime call through r11 (position independent and
// reachable from any address).
func callRT(a *x86.Asm, addr uint64) {
	a.MovRegImm64(x86.R11, addr)
	a.CallReg(x86.R11)
}
