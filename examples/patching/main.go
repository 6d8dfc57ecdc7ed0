// Binary patching (the paper's Example 3.1): fix a CVE-2019-18408
// style use-after-free at the binary level, without source code and
// without moving a single instruction.
//
// The miniature "archive reader" below reproduces the bug shape: when
// read_data fails, ppmd7 state is freed but rar->start_new_table is
// not set, so a later path dereferences the stale table. The developer
// patch adds `rar->start_new_table = 1` after the free. We apply that
// patch at the binary level by patching the first instruction after
// the call — exactly the paper's strategy — using a Raw trampoline
// template that executes the displaced instruction, performs the fix,
// and returns.
package main

import (
	"fmt"
	"log"

	"e9patch"
	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// rar struct layout in the emulated heap.
const (
	offStartNewTable = 0x38 // rar->start_new_table
	offTable         = 0x40 // rar->context table pointer
)

// buildVulnerable assembles the buggy archive reader and returns the
// binary plus the virtual address of the patch point (the first
// instruction after the failing call to free).
func buildVulnerable() ([]byte, uint64, error) {
	const base = elf64.DefaultBase + elf64.TextVaddrOff
	a := x86.NewAsm(base)

	over := a.NewLabel()
	a.Jmp(over)

	// read_data: always fails (returns 1 != ARCHIVE_OK).
	readData := a.NewLabel()
	a.Bind(readData)
	a.MovRegImm32(x86.RAX, 1)
	a.Ret()

	// use_table(rar in r14): if start_new_table, rebuild; otherwise
	// dereference the (stale) table pointer -> wrong output.
	useTable := a.NewLabel()
	a.Bind(useTable)
	rebuild := a.NewLabel()
	a.CmpMemImm8(x86.M(x86.R14, offStartNewTable), 1)
	a.JccShort(x86.CondE, rebuild)
	a.MovRegMem64(x86.RAX, x86.M(x86.R14, offTable)) // stale pointer
	a.MovRegMem64(x86.RAX, x86.M(x86.RAX, 0))        // use-after-free read
	a.Ret()
	a.Bind(rebuild)
	a.MovRegImm32(x86.RAX, 42) // fresh table value
	a.Ret()

	a.Bind(over)
	// rar = malloc(0x80); rar->start_new_table = 0.
	a.MovRegImm32(x86.RDI, 0x80)
	a.MovRegImm64(x86.R11, workload.RTMalloc)
	a.CallReg(x86.R11)
	a.MovRegReg64(x86.R14, x86.RAX)
	a.MovMemImm8(x86.M(x86.R14, offStartNewTable), 0)
	// table = malloc(0x40); *table = 666 (stale content after free).
	a.MovRegImm32(x86.RDI, 0x40)
	a.MovRegImm64(x86.R11, workload.RTMalloc)
	a.CallReg(x86.R11)
	a.MovMemImm32Sx64(x86.M(x86.RAX, 0), 666)
	a.MovMemReg64(x86.M(x86.R14, offTable), x86.RAX)

	// ret = read_data(...); if (ret != ARCHIVE_OK) ppmd7.free(ctx);
	a.Call(readData)
	a.MovRegImm64(x86.R11, workload.RTFree)
	a.CallReg(x86.R11)
	// ---- PATCH POINT: first instruction after the free call ----
	patchOff := a.Len()
	a.MovRegReg32(x86.RBP, x86.RBX) // the paper's `mov %ebx,%ebp` at 422a61
	// -------------------------------------------------------------
	a.Call(useTable)
	a.MovRegReg64(x86.RDI, x86.RAX)
	a.MovRegImm64(x86.R11, workload.RTOutput)
	a.CallReg(x86.R11)
	a.Ret()

	text, err := a.Finish()
	if err != nil {
		return nil, 0, err
	}
	bin, err := elf64.Build(elf64.BuildSpec{Text: text, Data: make([]byte, 64), BSSSize: 0x1000})
	return bin, base + uint64(patchOff), err
}

func run(bin []byte) *emu.Machine {
	m := workload.NewMachine(nil)
	entry, err := e9patch.Load(m, bin)
	if err != nil {
		log.Fatal(err)
	}
	m.RIP = entry
	if err := m.Run(1_000_000); err != nil {
		log.Fatal(err)
	}
	return m
}

func main() {
	bin, patchAddr, err := buildVulnerable()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vulnerable binary: %d bytes, patch point at %#x\n", len(bin), patchAddr)

	before := run(bin)
	fmt.Printf("before patch: output = %v  (666 = stale table used after free)\n", before.Output)

	// The binary patch: at the patch point, run the displaced
	// instruction plus the developer fix `rar->start_new_table = 1`.
	res, err := e9patch.Rewrite(bin, e9patch.Config{
		Select: func(insts []x86.Loc) []int {
			for i := range insts {
				if insts[i].Addr == patchAddr {
					return []int{i}
				}
			}
			return nil
		},
		Template: e9patch.RawTemplate(func(a *x86.Asm, inst *x86.Inst, resume uint64) error {
			a.Raw(inst.Bytes...)                              // displaced mov %ebx,%ebp
			a.MovMemImm8(x86.M(x86.R14, offStartNewTable), 1) // the fix
			a.JmpRel32(resume)
			return a.Err()
		}),
		ReserveVA: workload.ReserveVA(),
	})
	if err != nil {
		log.Fatal(err)
	}
	r := res.Stats
	fmt.Printf("patched 1 location via tactic breakdown B1=%d B2=%d T1=%d T2=%d T3=%d\n",
		r.ByTactic[1], r.ByTactic[2], r.ByTactic[3], r.ByTactic[4], r.ByTactic[5])

	after := run(res.Output)
	fmt.Printf("after patch:  output = %v  (42 = table rebuilt, bug fixed)\n", after.Output)
	if after.Output[0] != 42 {
		log.Fatal("patch did not take effect")
	}
	fmt.Println("\nbinary patch applied without control-flow recovery ✓")
}
