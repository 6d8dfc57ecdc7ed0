package enginetest

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"e9patch/internal/emu"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// The trampoline-shaped programs below put their code on two pages, as
// a rewritten binary does: a patched site on SiteBase jumps to its
// trampoline on TrampBase, which jumps back. The hop is farther than
// the cost model's FarDistance, so both jumps are far jumps.
const (
	SiteBase    = 0x401000
	TrampBase   = 0x480000
	HopTailBase = 0x4C0000

	hopRuntime  = 0x490000 // a bound runtime address, nothing mapped
	hopExit     = 0x4A0000 // the exit sentinel of the hop programs
	hopUnmapped = 0x4B0000 // nothing mapped, nothing bound
)

// HopSMC is a three-page loop, `top: add rax, 1; jmp T` on SiteBase,
// `T: mov rbx, top+3; mov byte [rbx], 5; jmp C` on TrampBase and `C:
// add rcx, 1; cmp rcx, 3; jl top; ret` on HopTailBase. Each trip's
// store, issued from the trampoline, rewrites the immediate of the
// loop's first instruction on the site page, which the same superblock
// decoded before it hopped: iterations 1 and 2 add 5, and the program
// exits 11. It returns the three texts.
func HopSMC() (site, tramp, tail []byte) {
	s := x86.NewAsm(SiteBase)
	s.AddRegImm64(x86.RAX, 1) // imm8 at SiteBase+3
	s.JmpRel32(TrampBase)

	t := x86.NewAsm(TrampBase)
	t.MovRegImm64(x86.RBX, SiteBase+3)
	t.MovMemImm8(x86.M(x86.RBX, 0), 5)
	t.JmpRel32(HopTailBase)

	c := x86.NewAsm(HopTailBase)
	c.AddRegImm64(x86.RCX, 1)
	c.CmpRegImm64(x86.RCX, 3)
	c.JccRel32(x86.CondL, SiteBase)
	c.Ret()
	return s.MustFinish(), t.MustFinish(), c.MustFinish()
}

// HopMachine builds a machine with the texts mapped at SiteBase,
// TrampBase and HopTailBase (tail may be nil) and an exit sentinel
// near enough for a rel32 jump to reach it.
func HopMachine(eng emu.Engine, site, tramp, tail []byte) *emu.Machine {
	m := emu.NewMachine()
	m.Engine = eng
	m.ExitAddr = hopExit
	m.Mem.WriteBytes(SiteBase, site)
	m.Mem.WriteBytes(TrampBase, tramp)
	m.Mem.WriteBytes(HopTailBase, tail)
	m.SetupStack(workload.StackTop, workload.StackSize)
	m.RIP = SiteBase
	return m
}

// testSuperblockHop runs trampoline-shaped chains whose hops a block
// engine may follow inside one block, and holds every run to the
// interpreter: state, counters, output, memory and the error.
func testSuperblockHop(t *testing.T, engine string) {
	// run returns the interpreter's error text; the engine's must be
	// the same.
	run := func(name string, site, tramp, tail []byte, budget uint64, bind func(*emu.Machine)) string {
		t.Helper()
		var ms [2]*emu.Machine
		var errs [2]string
		for i, eng := range []emu.Engine{nil, newEngine(t, engine)} {
			m := HopMachine(eng, site, tramp, tail)
			if bind != nil {
				bind(m)
			}
			if err := m.Run(budget); err != nil {
				errs[i] = err.Error()
			}
			ms[i] = m
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: interp ended with %q, %s with %q", name, errs[0], engine, errs[1])
		}
		diffStates(t, name, engine, stateOf(ms[0]), stateOf(ms[1]))
		if addr, diff := emu.DiffMemory(ms[0].Mem, ms[1].Mem); diff {
			t.Errorf("%s: memory diverged at %#x", name, addr)
		}
		return errs[0]
	}
	mustEnd := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: interp ended with %q, want %q", name, got, want)
		}
	}

	// (a) A store from the trampoline into the site page, which the
	// block decoded before it hopped.
	site, tramp, tail := HopSMC()
	mustEnd("store-into-earlier-segment", run("store-into-earlier-segment", site, tramp, tail, 10_000, nil), "")

	// (b) Hops onto a bound runtime address and onto the exit sentinel:
	// `site: mov rdi, 11; jmp T; back1: mov rdi, 22; push back2; jmp
	// rt; back2: mov rax, 3; jmp exit` with `T: push back1; jmp rt`.
	s := x86.NewAsm(SiteBase)
	s.MovRegImm32(x86.RDI, 11)
	s.JmpRel32(TrampBase)
	back1 := s.Addr()
	s.MovRegImm32(x86.RDI, 22)
	movOff := s.Len()
	s.MovRegImm64(x86.RAX, 0) // imm patched to back2 below
	s.PushReg(x86.RAX)
	s.JmpRel32(hopRuntime)
	back2 := s.Addr()
	s.MovRegImm32(x86.RAX, 3)
	s.JmpRel32(hopExit)
	site = s.MustFinish()
	binary.LittleEndian.PutUint64(site[movOff+2:], back2)
	t2 := x86.NewAsm(TrampBase)
	t2.MovRegImm64(x86.RAX, back1)
	t2.PushReg(x86.RAX)
	t2.JmpRel32(hopRuntime)
	mustEnd("onto-runtime-and-exit", run("onto-runtime-and-exit", site, t2.MustFinish(), nil, 10_000,
		func(m *emu.Machine) { emu.BindOutput(m, hopRuntime) }), "")

	// (c) `site: xor eax, eax; jmp T; back: add rax, 2; jmp $` with `T:
	// add rax, 1; jmp back`: the budget runs out at every point of the
	// hopping block and of the self-loop after it.
	s = x86.NewAsm(SiteBase)
	s.XorRegReg32(x86.RAX, x86.RAX)
	s.JmpRel32(TrampBase)
	back := s.Addr()
	s.AddRegImm64(x86.RAX, 2)
	s.JmpRel32(s.Addr())
	t3 := x86.NewAsm(TrampBase)
	t3.AddRegImm64(x86.RAX, 1)
	t3.JmpRel32(back)
	site, tramp = s.MustFinish(), t3.MustFinish()
	for budget := uint64(1); budget <= 9; budget++ {
		name := fmt.Sprintf("budget-%d", budget)
		if got := run(name, site, tramp, nil, budget, nil); !strings.HasPrefix(got, emu.ErrMaxInstructions.Error()) {
			t.Errorf("%s: interp ended with %q, not the budget", name, got)
		}
	}

	// (d) A hop into an unmapped page: `site: mov eax, 1; jmp T` with
	// `T: add rax, 1; jmp unmapped`.
	s = x86.NewAsm(SiteBase)
	s.MovRegImm32(x86.RAX, 1)
	s.JmpRel32(TrampBase)
	t4 := x86.NewAsm(TrampBase)
	t4.AddRegImm64(x86.RAX, 1)
	t4.JmpRel32(hopUnmapped)
	mustEnd("into-unmapped", run("into-unmapped", s.MustFinish(), t4.MustFinish(), nil, 10_000, nil),
		fmt.Sprintf("emu: fetch fault at %#x", hopUnmapped))

	// And a load from it, the last instruction before the hop back:
	// `site: mov ebx, unmapped; jmp T` with `T: mov rax, [rbx]; jmp
	// site`. The fault retires the load and nothing after it.
	s = x86.NewAsm(SiteBase)
	s.MovRegImm32(x86.RBX, hopUnmapped)
	s.JmpRel32(TrampBase)
	t5 := x86.NewAsm(TrampBase)
	t5.MovRegMem64(x86.RAX, x86.M(x86.RBX, 0))
	t5.JmpRel32(SiteBase)
	if got := run("load-fault-before-hop", s.MustFinish(), t5.MustFinish(), nil, 10_000, nil); !strings.Contains(got, "read fault") {
		t.Errorf("load-fault-before-hop: interp ended with %q, not a read fault", got)
	}
}

// fusedValues are the operand pairs testFusedJcc runs each ALU op on:
// equal, below and above, and each width's signed and unsigned
// boundaries. Bits above the operand width are set, so an engine that
// forgets to mask them shows.
func fusedValues(w int) [][2]uint64 {
	bits := uint(8 * w)
	mask := ^uint64(0) >> (64 - bits)
	maxPos, minNeg := mask>>1, mask>>1+1
	junk := ^mask & 0x5A5A5A5A5A5A5A5A
	var out [][2]uint64
	for _, p := range [][2]uint64{
		{5, 9}, {9, 5}, {7, 7}, {maxPos, 1}, {minNeg, 1}, {mask, 1}, {0, minNeg}, {minNeg, maxPos},
	} {
		out = append(out, [2]uint64{p[0] | junk, p[1] | junk})
	}
	return out
}

// fusedForm is one encoding of an ALU op with register and immediate
// operands: prefix/opcode bytes, whether it takes an immediate (and
// of how many bytes), and the register fields.
type fusedForm struct {
	name     string
	opcode   []byte
	modrm    bool
	dst, src x86.Reg // ModRM rm and reg fields (dst only for immediates)
	immBytes int
}

// fusedForms returns the register and immediate encodings of ALU op
// aluOp (0-7: add, or, adc, sbb, and, sub, xor, cmp; 8: test) at width
// w. At width 1, register numbers 4-7 without a REX prefix are AH-BH.
func fusedForms(aluOp, w int) []fusedForm {
	var pre []byte
	switch w {
	case 2:
		pre = []byte{0x66}
	case 8:
		pre = []byte{0x48}
	}
	full := 0
	if w > 1 {
		full = 1
	}
	immW := min(w, 4)
	with := func(b ...byte) []byte { return append(append([]byte{}, pre...), b...) }
	regPairs := [][2]x86.Reg{{x86.RCX, x86.RDX}}
	if w == 1 {
		regPairs = append(regPairs, [2]x86.Reg{4, 7}, [2]x86.Reg{5, 6}) // ah, bh; ch, dh
	}
	var forms []fusedForm
	if aluOp == 8 { // test
		for _, r := range regPairs {
			forms = append(forms, fusedForm{fmt.Sprintf("test-rr%d%d", r[0], r[1]), with(byte(0x84 + full)), true, r[0], r[1], 0})
		}
		return append(forms, fusedForm{"test-acc-imm", with(byte(0xA8 + full)), false, x86.RAX, 0, immW})
	}
	op := byte(aluOp) << 3
	for _, r := range regPairs {
		forms = append(forms, fusedForm{fmt.Sprintf("rr%d%d", r[0], r[1]), with(op + byte(full)), true, r[0], r[1], 0})
		forms = append(forms, fusedForm{fmt.Sprintf("r-imm%d", r[0]), with(byte(0x80 + full)), true, r[0], x86.Reg(aluOp), immW})
	}
	if w > 1 {
		forms = append(forms, fusedForm{"r-imm8", with(0x83), true, x86.RCX, x86.Reg(aluOp), 1})
	}
	return append(forms, fusedForm{"acc-imm", with(op + 4 + byte(full)), false, x86.RAX, 0, immW})
}

// fusedProgram assembles, for each of the 16 conditions, `add r13,
// r13; mov dst, a; mov src, b; <form>; jcc taken; add r13, 1; taken:`
// and ends in hlt: r13's low 16 bits record which branches were taken,
// and every ALU-jcc pair ends a block.
func fusedProgram(f fusedForm, a, b uint64) []byte {
	asm := x86.NewAsm(SiteBase)
	for cc := x86.Cond(0); cc < 16; cc++ {
		asm.AddRegReg64(x86.R13, x86.R13)
		asm.MovRegImm64(f.dst, a)
		if f.modrm && f.immBytes == 0 {
			asm.MovRegImm64(f.src, b)
		}
		asm.Raw(f.opcode...)
		if f.modrm {
			asm.Raw(0xC0 | byte(f.src&7)<<3 | byte(f.dst&7))
		}
		for i := 0; i < f.immBytes; i++ {
			asm.Raw(byte(b >> (8 * i)))
		}
		taken := asm.NewLabel()
		asm.JccShort(cc, taken)
		asm.AddRegImm64(x86.R13, 1)
		asm.Bind(taken)
	}
	asm.Raw(0xF4) // hlt
	return asm.MustFinish()
}

// testFusedJcc runs every ALU op, test and cmp, at every width, in
// every register and immediate form, followed by each of the 16
// conditional branches, over boundary operands: a block engine that
// fuses the pair into one step must branch, count and leave the flags
// exactly as the interpreter does.
func testFusedJcc(t *testing.T, engine string) {
	for aluOp := 0; aluOp <= 8; aluOp++ {
		for _, w := range []int{1, 2, 4, 8} {
			for _, f := range fusedForms(aluOp, w) {
				for _, v := range fusedValues(w) {
					text := fusedProgram(f, v[0], v[1])
					var ms [2]*emu.Machine
					for i, eng := range []emu.Engine{nil, newEngine(t, engine)} {
						ms[i] = rawMachine(eng, SiteBase, text)
						if err := ms[i].Run(10_000); err != nil {
							t.Fatalf("op %d w%d %s: %v", aluOp, w, f.name, err)
						}
					}
					diffStates(t, fmt.Sprintf("op %d w%d %s %#x,%#x", aluOp, w, f.name, v[0], v[1]),
						engine, stateOf(ms[0]), stateOf(ms[1]))
				}
			}
		}
	}
}
