package workload

import (
	"fmt"

	"e9patch/internal/x86"
)

// Runnable kernels. Each SPEC row maps to an archetype whose dynamic
// mix (branch density, heap-write density, call density) matches the
// row's character; Time% is measured by running the kernel before and
// after rewriting on identical inputs (DESIGN.md §1).

// KernelIters scales all kernel iteration counts (tests shrink it).
var KernelIters = 20000

// KernelTuning adds per-benchmark dynamic-density variation to an
// archetype: extra conditional branches and heap stores per loop
// iteration, derived from the row's published static densities.
type KernelTuning struct {
	ExtraBranches int
	ExtraStores   int
}

// TuningFor derives kernel tuning from a profile's instruction mix.
func TuningFor(p Profile) KernelTuning {
	m := deriveMix(&p)
	return KernelTuning{
		ExtraBranches: clampI(m.jumpW/35, 0, 6),
		ExtraStores:   clampI(m.storeW/60, 0, 4),
	}
}

// tuning in effect while emitting (plumbed via the emit helpers).
var curTuning KernelTuning

// emitExtras emits the tuning's additional per-iteration work: bit-test
// branches on the checksum and strided heap stores. Clobbers r10/r11.
func emitExtras(a *x86.Asm) {
	for i := 0; i < curTuning.ExtraBranches; i++ {
		skip := a.NewLabel()
		a.MovRegReg64(x86.R10, x86.R13)
		a.ShrRegImm64(x86.R10, uint8(3+2*i))
		a.AndRegImm64(x86.R10, 1)
		a.CmpRegImm64(x86.R10, 0)
		a.JccShort(x86.CondE, skip)
		a.AddRegImm64(x86.R13, int32(i)+3)
		a.Bind(skip)
	}
	for i := 0; i < curTuning.ExtraStores; i++ {
		a.MovRegReg64(x86.R10, x86.R13)
		a.AndRegImm64(x86.R10, 0xFF8)
		a.MovMemReg64(x86.MIdx(x86.R14, x86.R10, 1, int32(8*i)), x86.R13)
	}
}

// BuildKernel builds the runnable program for an archetype.
func BuildKernel(arch string, pie bool) (*Program, error) {
	return BuildKernelTuned(arch, pie, KernelTuning{})
}

// BuildKernelTuned builds an archetype with per-row density tuning.
func BuildKernelTuned(arch string, pie bool, tune KernelTuning) (*Program, error) {
	base := elfTextAddr(KindExec)
	if pie {
		base = elfTextAddr(KindPIE)
	}
	curTuning = tune
	defer func() { curTuning = KernelTuning{} }()
	a := x86.NewAsm(base)
	switch arch {
	case "branchy":
		emitBranchy(a, KernelIters)
	case "memstream":
		emitMemstream(a, KernelIters*2)
	case "matrix":
		emitMatrix(a, KernelIters/40)
	case "pointer":
		emitPointer(a, KernelIters)
	case "callheavy":
		emitCallHeavy(a, KernelIters)
	default:
		return nil, fmt.Errorf("workload: unknown kernel %q", arch)
	}
	text, err := a.Finish()
	if err != nil {
		return nil, fmt.Errorf("workload kernel %s: %w", arch, err)
	}
	return buildELF("kernel-"+arch, pie, text, make([]byte, 1024), 0x4000)
}

// lcgStep emits one step of a 64-bit LCG in reg, clobbering r10.
func lcgStep(a *x86.Asm, reg x86.Reg) {
	a.MovRegImm64(x86.R10, 6364136223846793005)
	a.ImulRegReg64(reg, x86.R10)
	a.MovRegImm64(x86.R10, 1442695040888963407)
	a.AddRegReg64(reg, x86.R10)
}

// prologue allocates the kernel's working buffer into r12, a separate
// scratch buffer for the tuning extras into r14, and zeroes the
// checksum register r13.
func prologue(a *x86.Asm, bufSize uint32) {
	a.MovRegImm32(x86.RDI, bufSize)
	callRT(a, RTMalloc)
	a.MovRegReg64(x86.R12, x86.RAX)
	a.MovRegImm32(x86.RDI, 0x2000)
	callRT(a, RTMalloc)
	a.MovRegReg64(x86.R14, x86.RAX)
	a.XorRegReg32(x86.R13, x86.R13)
}

// epilogue outputs the checksum in r13 and returns (halting via the
// stack sentinel).
func epilogue(a *x86.Asm) {
	a.MovRegReg64(x86.RDI, x86.R13)
	callRT(a, RTOutput)
	a.MovRegReg64(x86.RAX, x86.R13)
	a.Ret()
}

// emitBranchy models perlbench/gcc/gobmk/sjeng: unpredictable
// data-dependent branches with occasional heap writes.
func emitBranchy(a *x86.Asm, iters int) {
	prologue(a, 1<<16)
	a.MovRegImm64(x86.RSI, 0x1234_5678_9ABC_DEF1) // lcg state
	a.XorRegReg32(x86.RCX, x86.RCX)               // i
	top := a.NewLabel()
	a.Bind(top)
	lcgStep(a, x86.RSI)
	a.MovRegReg64(x86.RAX, x86.RSI)
	a.ShrRegImm64(x86.RAX, 33)

	odd := a.NewLabel()
	join := a.NewLabel()
	a.TestRegReg64(x86.RAX, x86.RAX) // parity via low bit comparison
	a.MovRegReg64(x86.RDX, x86.RAX)
	a.AndRegImm64(x86.RDX, 1)
	a.CmpRegImm64(x86.RDX, 0)
	a.Jcc(x86.CondNE, odd)
	a.AddRegReg64(x86.R13, x86.RAX)
	a.Jmp(join)
	a.Bind(odd)
	a.SubRegReg64(x86.R13, x86.RAX)
	// Heap write at a pseudo-random slot.
	a.MovRegReg64(x86.RDX, x86.RAX)
	a.AndRegImm64(x86.RDX, 0x1FF8)
	a.MovMemReg64(x86.MIdx(x86.R12, x86.RDX, 1, 0), x86.R13)
	a.Bind(join)

	// Second-level branch on a different bit.
	deep := a.NewLabel()
	a.MovRegReg64(x86.RDX, x86.RAX)
	a.AndRegImm64(x86.RDX, 6)
	a.CmpRegImm64(x86.RDX, 4)
	a.JccShort(x86.CondNE, deep)
	a.AddRegImm64(x86.R13, 7)
	a.Bind(deep)

	emitExtras(a)
	a.AddRegImm64(x86.RCX, 1)
	a.CmpRegImm64(x86.RCX, int32(iters))
	a.Jcc(x86.CondL, top)
	epilogue(a)
}

// emitMemstream models bzip2/hmmer/h264ref/lbm: streaming stores with
// periodic reloads.
func emitMemstream(a *x86.Asm, iters int) {
	prologue(a, 1<<18)
	a.XorRegReg32(x86.RCX, x86.RCX) // i
	a.MovRegImm64(x86.RAX, 0x9E3779B97F4A7C15)
	top := a.NewLabel()
	a.Bind(top)
	a.MovRegReg64(x86.RDX, x86.RCX)
	a.AndRegImm64(x86.RDX, 0x3FFF8)
	a.MovMemReg64(x86.MIdx(x86.R12, x86.RDX, 1, 0), x86.RAX) // stream store
	a.AddRegMem64(x86.R13, x86.MIdx(x86.R12, x86.RDX, 1, 0)) // reload+sum
	a.MovMemReg32(x86.MIdx(x86.R12, x86.RDX, 1, 4), x86.RCX) // second store
	a.AddRegReg64(x86.RAX, x86.R13)
	emitExtras(a)
	a.AddRegImm64(x86.RCX, 8)
	a.CmpRegImm64(x86.RCX, int32(iters*8))
	a.Jcc(x86.CondL, top)
	epilogue(a)
}

// emitMatrix models the Fortran rows: nested loops, dense stores, few
// branches.
func emitMatrix(a *x86.Asm, rows int) {
	const cols = 64
	prologue(a, 1<<18)
	a.XorRegReg32(x86.RSI, x86.RSI) // row
	rowTop := a.NewLabel()
	a.Bind(rowTop)
	a.XorRegReg32(x86.RCX, x86.RCX) // col
	a.MovRegReg64(x86.RAX, x86.RSI)
	colTop := a.NewLabel()
	a.Bind(colTop)
	// a[row*cols+col] = rax; checksum += rax; unrolled x2.
	a.MovRegReg64(x86.RDX, x86.RSI)
	a.ShlRegImm64(x86.RDX, 9) // row*cols*8
	a.AddRegReg64(x86.RDX, x86.RCX)
	a.AndRegImm64(x86.RDX, 0x3FFF8)
	a.MovMemReg64(x86.MIdx(x86.R12, x86.RDX, 1, 0), x86.RAX)
	a.ImulRegRegImm32(x86.RAX, x86.RAX, 33)
	a.AddRegImm64(x86.RAX, 17)
	a.AddRegReg64(x86.R13, x86.RAX)
	a.MovMemReg32(x86.MIdx(x86.R12, x86.RDX, 1, 8), x86.RAX)
	emitExtras(a)
	a.AddRegImm64(x86.RCX, 16)
	a.CmpRegImm64(x86.RCX, cols*8)
	a.Jcc(x86.CondL, colTop)
	a.AddRegImm64(x86.RSI, 1)
	a.CmpRegImm64(x86.RSI, int32(rows))
	a.Jcc(x86.CondL, rowTop)
	epilogue(a)
}

// emitPointer models mcf/omnetpp/astar: pointer chasing over a linked
// structure built in the heap.
func emitPointer(a *x86.Asm, iters int) {
	const nodes = 1024
	prologue(a, nodes*16+64)
	// Build a strided cyclic list: node i -> node (i*7+1) % nodes.
	a.XorRegReg32(x86.RCX, x86.RCX)
	build := a.NewLabel()
	a.Bind(build)
	a.ImulRegRegImm32(x86.RDX, x86.RCX, 7)
	a.AddRegImm64(x86.RDX, 1)
	a.AndRegImm64(x86.RDX, nodes-1)
	a.ShlRegImm64(x86.RDX, 4)
	a.Lea(x86.RAX, x86.MIdx(x86.R12, x86.RDX, 1, 0)) // &node[next]
	a.MovRegReg64(x86.RDX, x86.RCX)
	a.ShlRegImm64(x86.RDX, 4)
	a.MovMemReg64(x86.MIdx(x86.R12, x86.RDX, 1, 0), x86.RAX) // node[i].next
	a.MovMemReg64(x86.MIdx(x86.R12, x86.RDX, 1, 8), x86.RCX) // node[i].val
	a.AddRegImm64(x86.RCX, 1)
	a.CmpRegImm64(x86.RCX, nodes)
	a.Jcc(x86.CondL, build)

	// Chase and mutate.
	a.MovRegReg64(x86.RBX, x86.R12) // cursor
	a.XorRegReg32(x86.RCX, x86.RCX)
	chase := a.NewLabel()
	a.Bind(chase)
	a.MovRegMem64(x86.RAX, x86.M(x86.RBX, 8)) // val
	a.AddRegReg64(x86.R13, x86.RAX)
	a.AddRegImm64(x86.RAX, 3)
	a.MovMemReg64(x86.M(x86.RBX, 8), x86.RAX) // heap write
	a.MovRegMem64(x86.RBX, x86.M(x86.RBX, 0)) // next
	skip := a.NewLabel()
	a.TestRegReg64(x86.RAX, x86.RAX)
	a.JccShort(x86.CondS, skip)
	a.AddRegImm64(x86.R13, 1)
	a.Bind(skip)
	emitExtras(a)
	a.AddRegImm64(x86.RCX, 1)
	a.CmpRegImm64(x86.RCX, int32(iters))
	a.Jcc(x86.CondL, chase)
	epilogue(a)
}

// emitCallHeavy models dealII/povray/xalancbmk: many small virtual
// calls, each doing a little work including a store.
func emitCallHeavy(a *x86.Asm, iters int) {
	prologue(a, 1<<14)
	over := a.NewLabel()
	a.Jmp(over)

	// fn1(rdi=index): buffer[index] += index; returns index*3.
	fn1 := a.NewLabel()
	a.Bind(fn1)
	a.MovRegReg64(x86.RDX, x86.RDI)
	a.AndRegImm64(x86.RDX, 0xFF8)
	a.AddMemReg64(x86.MIdx(x86.R12, x86.RDX, 1, 0), x86.RDI)
	a.Lea(x86.RAX, x86.MIdx(x86.RDI, x86.RDI, 2, 0))
	a.Ret()

	// fn2(rdi): tail work with a byte store.
	fn2 := a.NewLabel()
	a.Bind(fn2)
	a.MovRegReg64(x86.RDX, x86.RDI)
	a.AndRegImm64(x86.RDX, 0xFFF)
	a.MovMemReg8(x86.MIdx(x86.R12, x86.RDX, 1, 0), x86.RAX)
	a.MovRegReg64(x86.RAX, x86.RDI)
	a.NotReg64(x86.RAX)
	a.Ret()

	a.Bind(over)
	a.XorRegReg32(x86.RCX, x86.RCX)
	top := a.NewLabel()
	a.Bind(top)
	a.MovRegReg64(x86.RDI, x86.RCX)
	a.Call(fn1)
	a.AddRegReg64(x86.R13, x86.RAX)
	a.MovRegReg64(x86.RDI, x86.RAX)
	a.Call(fn2)
	a.XorRegReg64(x86.R13, x86.RAX)
	emitExtras(a)
	a.AddRegImm64(x86.RCX, 1)
	a.CmpRegImm64(x86.RCX, int32(iters))
	a.Jcc(x86.CondL, top)
	epilogue(a)
}
