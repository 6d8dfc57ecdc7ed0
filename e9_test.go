package e9patch

import (
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

func init() { workload.KernelIters = 1500 }

// runBinary loads and executes a binary (original or rewritten) and
// returns the machine state.
func runBinary(t *testing.T, bin []byte, bind workload.MallocBinding) *emu.Machine {
	t.Helper()
	m := workload.NewMachine(bind)
	workload.BindJit(m)
	entry, err := Load(m, bin)
	if err != nil {
		t.Fatal(err)
	}
	m.RIP = entry
	if err := m.Run(500_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

// jumpTargetProgram is the paper's core guarantee as a program: it
// calls three functions indirectly through a register, and each begins
// with a heap write, an A2 site at the exact address the call targets.
// Indirect control flow to an original instruction must still work
// after patching, even when the target was itself patched or evicted.
// The run outputs 1+1+2+3.
func jumpTargetProgram(t *testing.T) []byte {
	t.Helper()
	const base = 0x401000
	a := x86.NewAsm(base)

	over := a.NewLabel()
	a.Jmp(over)

	// Three tiny functions, each beginning with a heap write (an A2
	// patch site at the exact address stored in the function table).
	for i := 0; i < 3; i++ {
		a.MovMemReg64(x86.M(x86.RBX, int32(8*i)), x86.RCX) // patch site
		a.AddRegImm64(x86.RCX, int32(i+1))
		a.Ret()
	}

	a.Bind(over)
	a.MovRegImm64(x86.RBX, workload.HeapBase)
	a.MovRegImm32(x86.RDI, 64)
	a.MovRegImm64(x86.R11, workload.RTMalloc)
	a.CallReg(x86.R11)
	a.MovRegReg64(x86.RBX, x86.RAX)
	a.MovRegImm32(x86.RCX, 1)
	// Call each function indirectly through a register (the function
	// addresses are jump targets the rewriter must preserve).
	for i := 0; i < 3; i++ {
		a.MovRegImm64(x86.RDX, 0) // placeholder, patched below
		a.CallReg(x86.RDX)
	}
	a.MovRegReg64(x86.RDI, x86.RCX)
	a.MovRegImm64(x86.R11, workload.RTOutput)
	a.CallReg(x86.R11)
	a.Ret()

	code := a.MustFinish()

	// Fill the movabs placeholders with the actual function addresses.
	fnAddrs := findFnAddrs(t, code, base, 3)
	patched := 0
	for off := 0; off+10 <= len(code); off++ {
		if code[off] == 0x48 && code[off+1] == 0xBA { // movabs rdx, imm64
			v := uint64(0)
			for b := 0; b < 8; b++ {
				v |= uint64(code[off+2+b]) << (8 * uint(b))
			}
			if v == 0 && patched < 3 {
				addr := fnAddrs[patched]
				for b := 0; b < 8; b++ {
					code[off+2+b] = byte(addr >> (8 * uint(b)))
				}
				patched++
			}
		}
	}
	if patched != 3 {
		t.Fatalf("patched %d movabs placeholders", patched)
	}

	prog, err := buildTestELF(code)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// findFnAddrs locates the three `mov [rbx+8i], rcx` function entries.
func findFnAddrs(t *testing.T, code []byte, base uint64, n int) []uint64 {
	t.Helper()
	var out []uint64
	for off := 0; off+4 <= len(code) && len(out) < n; off++ {
		// 48 89 0B / 48 89 4B 08 / 48 89 4B 10 (mov [rbx+d], rcx)
		if code[off] == 0x48 && code[off+1] == 0x89 &&
			(code[off+2] == 0x0B || code[off+2] == 0x4B) {
			out = append(out, base+uint64(off))
		}
	}
	if len(out) != n {
		t.Fatalf("found %d function entries, want %d", len(out), n)
	}
	return out
}

func buildTestELF(text []byte) ([]byte, error) {
	return elf64.Build(elf64.BuildSpec{
		Text:     text,
		EntryOff: 0,
		Data:     make([]byte, 64),
		BSSSize:  0x1000,
	})
}
