// Package enginetest is the cross-engine conformance suite: one set of
// behavioural tests run against every execution engine
// (emu.EngineNames), always comparing to the decode-per-step
// interpreter as the reference semantics. An engine is correct iff it
// is observationally identical to the interpreter — same registers,
// flags, RIP, exit code, counters, output, memory image, trace stream
// and errors — on every program here (DESIGN.md §13).
//
// Engine-specific tests (chaining stats, flag-elision stats, speedup
// gates) live next to the engine in internal/emu; everything that must
// hold for *all* engines lives here, so a new engine gets the full
// lattice once emu.NewEngineByName and emu.EngineNames name it.
package enginetest

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"e9patch"
	"e9patch/internal/emu"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// finalState is everything observable about a finished machine.
type finalState struct {
	Regs     [16]uint64
	RIP      uint64
	Flags    uint64
	ExitCode uint64
	Counters emu.Counters
	Output   []uint64
}

func stateOf(m *emu.Machine) finalState {
	return finalState{
		Regs:     m.Regs,
		RIP:      m.RIP,
		Flags:    m.Flags,
		ExitCode: m.ExitCode,
		Counters: m.Counters,
		Output:   m.Output,
	}
}

func diffStates(t *testing.T, name, engine string, interp, under finalState) {
	t.Helper()
	if !reflect.DeepEqual(interp, under) {
		t.Errorf("%s: %s diverged from interp:\ninterp: %+v\n%s: %+v",
			name, engine, interp, engine, under)
	}
}

// newEngine instantiates a fresh engine under test. A fresh instance
// per run mirrors real use (one engine per machine) and keeps block
// caches from leaking between programs.
func newEngine(t *testing.T, name string) emu.Engine {
	t.Helper()
	eng, err := emu.NewEngineByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// runProgram executes an ELF image under the given engine (nil = the
// interpreter) and returns the machine.
func runProgram(t *testing.T, elf []byte, eng emu.Engine) *emu.Machine {
	t.Helper()
	m := workload.NewMachine(nil)
	workload.BindJit(m)
	m.Engine = eng
	entry, err := e9patch.Load(m, elf)
	if err != nil {
		t.Fatal(err)
	}
	m.RIP = entry
	if err := m.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// rawMachine builds a machine with text written at base, no ELF.
func rawMachine(eng emu.Engine, base uint64, text []byte) *emu.Machine {
	m := emu.NewMachine()
	m.Engine = eng
	m.Mem.WriteBytes(base, text)
	m.SetupStack(workload.StackTop, workload.StackSize)
	m.RIP = base
	return m
}

// Run executes the full conformance suite against the named engine.
func Run(t *testing.T, engine string) {
	t.Run("profiles", func(t *testing.T) { testProfiles(t, engine) })
	t.Run("dromaeo", func(t *testing.T) { testDromaeo(t, engine) })
	t.Run("smc-patch-loop", func(t *testing.T) { testSMCPatchLoop(t, engine) })
	t.Run("smc-same-block", func(t *testing.T) { testSMCSameBlock(t, engine) })
	t.Run("mutating-tracer", func(t *testing.T) { testMutatingTracer(t, engine) })
	t.Run("budget-parity", func(t *testing.T) { testBudgetParity(t, engine) })
	t.Run("flag-stress", func(t *testing.T) { testFlagStress(t, engine) })
	t.Run("special-mid-block", func(t *testing.T) { testSpecialMidBlock(t, engine) })
	t.Run("fetch-fault", func(t *testing.T) { testFetchFault(t, engine) })
	t.Run("superblock-hop", func(t *testing.T) { testSuperblockHop(t, engine) })
	t.Run("fused-jcc", func(t *testing.T) { testFusedJcc(t, engine) })
	t.Run("lone-jcc", func(t *testing.T) { testLoneJcc(t, engine) })
	t.Run("hop-fused", func(t *testing.T) { testHopFused(t, engine) })
	t.Run("static-costs", func(t *testing.T) { testStaticCosts(t, engine) })
}

// testProfiles is the acceptance gate: for every Table 1 profile, the
// engine and the interpreter produce byte-identical Counters,
// ExitCode, registers, flags and output on the profile's
// (density-tuned) kernel. Non-SPEC rows have no Time% kernel in the
// paper; they run the branchy archetype with their own tuning so every
// profile still contributes a distinct workload.
func testProfiles(t *testing.T, engine string) {
	saved := workload.KernelIters
	workload.KernelIters = 2000
	defer func() { workload.KernelIters = saved }()

	for _, p := range workload.AllProfiles() {
		kernel := p.Kernel
		if kernel == "" {
			kernel = "branchy"
		}
		prog, err := workload.BuildKernelTuned(kernel, p.Kind == workload.KindPIE, workload.TuningFor(p))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		interp := runProgram(t, prog.ELF, nil)
		under := runProgram(t, prog.ELF, newEngine(t, engine))
		diffStates(t, p.Name, engine, stateOf(interp), stateOf(under))
		if addr, diff := emu.DiffMemory(interp.Mem, under.Mem); diff {
			t.Errorf("%s: memory diverged at %#x", p.Name, addr)
		}
		if under.Counters.Instructions == 0 {
			t.Fatalf("%s: kernel retired no instructions", p.Name)
		}
	}
}

// testDromaeo covers the runtime-call-heavy Figure 4 programs (JIT
// episodes exercise stepSpecial between blocks).
func testDromaeo(t *testing.T, engine string) {
	saved := workload.KernelIters
	workload.KernelIters = 1500
	defer func() { workload.KernelIters = saved }()

	for _, s := range workload.DromaeoSuites {
		for _, jit := range []int{8, 55} {
			prog, err := workload.BuildDromaeo(s, true, jit)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			interp := runProgram(t, prog.ELF, nil)
			under := runProgram(t, prog.ELF, newEngine(t, engine))
			diffStates(t, s.Name, engine, stateOf(interp), stateOf(under))
		}
	}
}

// SMCPatchLoop assembles a loop that overwrites an instruction's
// immediate from a later iteration's perspective: iteration 0 executes
// `add rax, 1`, then the loop body patches the immediate byte to 5, so
// iterations 1 and 2 must add 5 and the program exits 11. Each of the
// three stores lands in code an engine has already cached.
func SMCPatchLoop(base uint64) []byte {
	a := x86.NewAsm(base)
	a.XorRegReg32(x86.RAX, x86.RAX)
	a.XorRegReg32(x86.RCX, x86.RCX)
	top := a.NewLabel()
	a.Bind(top)
	site := a.Addr()
	a.AddRegImm64(x86.RAX, 1) // imm low byte at site+3, patched below
	a.MovRegImm64(x86.RBX, site+3)
	a.MovMemImm8(x86.M(x86.RBX, 0), 5)
	a.AddRegImm64(x86.RCX, 1)
	a.CmpRegImm64(x86.RCX, 3)
	a.Jcc(x86.CondL, top)
	a.Ret()
	return a.MustFinish()
}

// SMCSameBlock assembles a straight-line run that stores a hlt opcode
// over its own next instruction. The interpreter's per-step fetch sees
// the new byte immediately; caching engines must abort the current
// block mid-flight and re-translate, or they would run the stale tail
// (`mov rax, 99`) and exit 99 instead of 7.
func SMCSameBlock(base uint64) []byte {
	a := x86.NewAsm(base)
	a.MovRegImm32(x86.RAX, 7)
	movOff := a.Len()
	a.MovRegImm64(x86.RBX, 0) // imm patched to siteAddr after assembly
	a.MovMemImm8(x86.M(x86.RBX, 0), 0xF4)
	siteAddr := a.Addr()
	a.Nop() // becomes hlt before it executes
	a.MovRegImm32(x86.RAX, 99)
	a.Ret()
	text := a.MustFinish()
	binary.LittleEndian.PutUint64(text[movOff+2:], siteAddr)
	return text
}

// testSMC runs one self-modifying program under the interpreter and
// the engine: every engine has to observe the new bytes.
func testSMC(t *testing.T, engine, name string, build func(base uint64) []byte, wantExit uint64) {
	const base = 0x401000
	text := build(base)
	interp := rawMachine(nil, base, text)
	if err := interp.Run(10_000); err != nil {
		t.Fatal(err)
	}
	under := rawMachine(newEngine(t, engine), base, text)
	if err := under.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if interp.ExitCode != wantExit {
		t.Errorf("interp exit = %d, want %d", interp.ExitCode, wantExit)
	}
	diffStates(t, name, engine, stateOf(interp), stateOf(under))
}

func testSMCPatchLoop(t *testing.T, engine string) {
	testSMC(t, engine, "patch-loop", SMCPatchLoop, 11) // 1 + 5 + 5
}

func testSMCSameBlock(t *testing.T, engine string) {
	testSMC(t, engine, "same-block", SMCSameBlock, 7)
}

// testSpecialMidBlock maps code over special addresses, which nothing
// forbids (a hostile ELF can place a segment anywhere). The interpreter
// services a special address before every fetch, so straight-line
// execution that reaches one makes the runtime call instead of running
// the bytes; a block engine has to end its blocks there. The second
// program binds the address from inside a runtime call, after the block
// that runs over it has been cached.
func testSpecialMidBlock(t *testing.T, engine string) {
	const base = 0x400000
	const rt = 0x2_0000_0000
	run := func(name string, text []byte, bind func(m *emu.Machine)) {
		t.Helper()
		var ms [2]*emu.Machine
		for i, eng := range []emu.Engine{nil, newEngine(t, engine)} {
			m := rawMachine(eng, base, text)
			bind(m)
			if err := m.Run(10_000); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ms[i] = m
		}
		diffStates(t, name, engine, stateOf(ms[0]), stateOf(ms[1]))
		if got := ms[0].Counters.RuntimeCalls; got == 0 {
			t.Errorf("%s: interp made no runtime call", name)
		}
	}

	// nop; nop; hlt with the second nop's address bound: one
	// instruction retires, the call returns through the stack's exit
	// sentinel, and the hlt is never reached.
	run("bound-at-start", []byte{0x90, 0x90, 0xF4}, func(m *emu.Machine) {
		emu.BindOutput(m, base+1)
	})

	// Two trips through a call to rt and a straight-line tail; the
	// second call binds an address inside the tail.
	a := x86.NewAsm(base)
	a.XorRegReg32(x86.RCX, x86.RCX)
	top := a.NewLabel()
	a.Bind(top)
	a.MovRegImm64(x86.RAX, rt)
	a.CallReg(x86.RAX)
	a.Nop()
	site := a.Addr()
	a.Nop()
	a.AddRegImm64(x86.RCX, 1)
	a.CmpRegImm64(x86.RCX, 3)
	a.Jcc(x86.CondL, top)
	a.Ret()
	run("bound-mid-run", a.MustFinish(), func(m *emu.Machine) {
		calls := 0
		m.Runtime[rt] = func(m *emu.Machine) error {
			if calls++; calls == 2 {
				emu.BindOutput(m, site)
			}
			return nil
		}
	})
}

// testFetchFault: fetching an instruction whose first byte lies on an
// unmapped page is one error under every engine, whether control jumps
// there or straight-line code runs off the end of its page into it. A
// block engine ends the block before such an instruction, so the same
// instructions retire. An instruction whose first byte is mapped runs
// even when the 15-byte fetch window crosses into an unmapped page.
func testFetchFault(t *testing.T, engine string) {
	// Each text ends exactly at the end of its page; nothing is mapped
	// after it.
	const pageEnd = 0x400000 + emu.PageSize
	run := func(name string, text []byte, wantErr string) {
		t.Helper()
		var ms [2]*emu.Machine
		for i, eng := range []emu.Engine{nil, newEngine(t, engine)} {
			m := rawMachine(eng, pageEnd-uint64(len(text)), text)
			got := ""
			if err := m.Run(10_000); err != nil {
				got = err.Error()
			}
			if got != wantErr {
				t.Errorf("%s: %s run ended with %q, want %q", name, []string{"interp", engine}[i], got, wantErr)
			}
			ms[i] = m
		}
		diffStates(t, name, engine, stateOf(ms[0]), stateOf(ms[1]))
	}

	// mov rax, 0x70000000; jmp rax
	run("jump-into-unmapped", []byte{0x48, 0xB8, 0, 0, 0, 0x70, 0, 0, 0, 0, 0xFF, 0xE0},
		"emu: fetch fault at 0x70000000")
	// Three nops, then the page ends.
	run("fall-off-the-page", []byte{0x90, 0x90, 0x90}, "emu: fetch fault at 0x401000")
	// nop; ret: the ret's fetch window is 14 unmapped bytes.
	run("window-crosses-the-page", []byte{0x90, 0xC3}, "")
}

// testMutatingTracer drives the engine with a tracer that corrupts the
// immediate of the first add-immediate instruction it sees at each
// address. The interpreter re-decodes every step, so the corruption
// applies exactly once per address; caching engines must hand the
// tracer (and execute) a private copy, or the mutation would be baked
// into the cache and every later iteration would diverge.
func testMutatingTracer(t *testing.T, engine string) {
	saved := workload.KernelIters
	workload.KernelIters = 500
	defer func() { workload.KernelIters = saved }()
	prog, err := workload.BuildKernel("branchy", false)
	if err != nil {
		t.Fatal(err)
	}

	run := func(eng emu.Engine) (*emu.Machine, []uint64) {
		m := workload.NewMachine(nil)
		m.Engine = eng
		entry, err := e9patch.Load(m, prog.ELF)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		var addrs []uint64
		m.Trace = func(inst *x86.Inst) {
			addrs = append(addrs, inst.Addr)
			// First sight of an `add r, imm8` at this address: bump the
			// immediate. Affects exactly this one execution.
			if !seen[inst.Addr] && inst.Opcode == 0x83 && (inst.ModRM>>3)&7 == 0 && inst.ImmSize == 1 {
				seen[inst.Addr] = true
				inst.Bytes[inst.ImmOff]++
			}
		}
		m.RIP = entry
		if err := m.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		return m, addrs
	}

	interp, interpAddrs := run(nil)
	under, underAddrs := run(newEngine(t, engine))
	diffStates(t, "mutating-tracer", engine, stateOf(interp), stateOf(under))
	if !reflect.DeepEqual(interpAddrs, underAddrs) {
		t.Errorf("trace address streams diverged: %d vs %d entries",
			len(interpAddrs), len(underAddrs))
	}
}

// testBudgetParity: exhausting the instruction budget must produce the
// identical error (message included) and identical machine state under
// every engine, for budgets landing at arbitrary points within and
// between blocks.
func testBudgetParity(t *testing.T, engine string) {
	saved := workload.KernelIters
	workload.KernelIters = 5000
	defer func() { workload.KernelIters = saved }()
	prog, err := workload.BuildKernel("callheavy", false)
	if err != nil {
		t.Fatal(err)
	}

	for _, budget := range []uint64{1, 7, 100, 1001, 4096} {
		run := func(eng emu.Engine) (*emu.Machine, error) {
			m := workload.NewMachine(nil)
			m.Engine = eng
			entry, err := e9patch.Load(m, prog.ELF)
			if err != nil {
				t.Fatal(err)
			}
			m.RIP = entry
			return m, m.Run(budget)
		}
		interp, ierr := run(nil)
		under, uerr := run(newEngine(t, engine))
		if ierr == nil || uerr == nil {
			t.Fatalf("budget %d: expected both engines to exhaust (interp=%v %s=%v)",
				budget, ierr, engine, uerr)
		}
		if !errors.Is(uerr, emu.ErrMaxInstructions) {
			t.Errorf("budget %d: %s error %v is not ErrMaxInstructions", budget, engine, uerr)
		}
		if ierr.Error() != uerr.Error() {
			t.Errorf("budget %d: error mismatch:\ninterp: %v\n%s: %v", budget, ierr, engine, uerr)
		}
		diffStates(t, "budget", engine, stateOf(interp), stateOf(under))
	}
}

// flagStressPrograms are tiny raw programs aimed squarely at lazy-flag
// machinery: every one ends with architectural flags (and registers
// derived from flags) that depend on correctly materializing partial
// flag state across adc/sbb/inc/shift/cmc/setcc/pushfq boundaries.
// Under ir, inc, neg, cmc/clc/stc and setcc run on the interpreter
// fallback, so these programs also check the seam between lifted ops
// and the fallback.
func flagStressPrograms(base uint64) map[string][]byte {
	progs := map[string][]byte{}

	// Carry chains through adc/sbb, including the sbb-self idiom.
	a := x86.NewAsm(base)
	a.MovRegImm64(x86.RAX, ^uint64(0))
	a.XorRegReg32(x86.RBX, x86.RBX)
	a.AddRegImm64(x86.RAX, 1)       // CF=1 ZF=1
	a.AdcRegImm64(x86.RBX, 0)       // rbx = 1: carry consumed
	a.AdcRegReg64(x86.RBX, x86.RBX) // CF=0 now: rbx = 2
	a.MovRegImm64(x86.RCX, 5)
	a.CmpRegImm64(x86.RBX, 3)       // 2 < 3: CF=1
	a.SbbRegReg64(x86.RCX, x86.RCX) // rcx = -1
	a.SbbRegImm64(x86.RAX, -2)      // rax = 0 - (-2) - CF(1) = 1
	a.Ret()
	progs["adc-sbb-chain"] = a.MustFinish()

	// inc preserves CF (the classic partial-flag hazard).
	a = x86.NewAsm(base)
	a.MovRegImm64(x86.RAX, ^uint64(0))
	a.AddRegImm64(x86.RAX, 1)       // CF=1
	a.IncMem32(x86.M(x86.RSP, -16)) // inc must not clobber CF
	a.AdcRegImm64(x86.RBX, 0)       // rbx = 1 iff CF survived
	a.Pushfq()
	a.PopReg(x86.RDX) // architectural flags snapshot
	a.Ret()
	progs["inc-preserves-cf"] = a.MustFinish()

	// Shifts: CF from the last bit out, zero-count leaves flags alone.
	a = x86.NewAsm(base)
	a.MovRegImm64(x86.RAX, 0x8000000000000001)
	a.ShlRegImm64(x86.RAX, 1)   // CF=1 (MSB out)
	a.Setcc(x86.CondB, x86.RBX) // bl = CF
	a.XorRegReg32(x86.RCX, x86.RCX)
	a.ShrRegCL64(x86.RAX)       // count 0: all flags preserved
	a.Setcc(x86.CondB, x86.RDX) // still the shl carry
	a.Pushfq()
	a.PopReg(x86.RSI)
	a.Ret()
	progs["shift-flags"] = a.MustFinish()

	// cmc/clc/stc drive CF without an ALU result backing it.
	a = x86.NewAsm(base)
	a.Clc()
	a.AdcRegImm64(x86.RAX, 1) // rax = 1
	a.Stc()
	a.AdcRegImm64(x86.RAX, 1) // rax = 3
	a.Cmc()                   // CF was 0 → 1
	a.AdcRegImm64(x86.RAX, 0) // rax = 4
	a.Setcc(x86.CondB, x86.RBX)
	a.Pushfq()
	a.PopReg(x86.RDX)
	a.Ret()
	progs["cmc-clc-stc"] = a.MustFinish()

	// setcc over the whole condition lattice after one cmp, into
	// low-byte registers that need (sil) and don't need (bl, r9b) REX.
	a = x86.NewAsm(base)
	a.MovRegImm64(x86.RAX, 5)
	a.CmpRegImm64(x86.RAX, 9) // 5-9: CF=1 SF=1 OF=0 ZF=0
	a.Setcc(x86.CondB, x86.RBX)
	a.Setcc(x86.CondLE, x86.RCX)
	a.Setcc(x86.CondS, x86.RDX)
	a.Setcc(x86.CondO, x86.RSI)
	a.Setcc(x86.CondP, x86.R9)
	a.Setcc(x86.CondNE, x86.R10)
	a.Ret()
	progs["setcc-lattice"] = a.MustFinish()

	// pushfq/popfq round trip with a flipped CF bit in between.
	a = x86.NewAsm(base)
	a.MovRegImm64(x86.RAX, ^uint64(0))
	a.AddRegImm64(x86.RAX, 1) // CF=1 ZF=1 PF=1 AF=1
	a.Pushfq()
	a.PopReg(x86.RBX)
	a.XorRegImm64(x86.RBX, 1) // flip CF in the image
	a.PushReg(x86.RBX)
	a.Popfq()                   // architectural CF now 0
	a.AdcRegImm64(x86.RCX, 0)   // rcx stays 0
	a.Setcc(x86.CondE, x86.RDX) // ZF survived the round trip
	a.Ret()
	progs["pushfq-popfq"] = a.MustFinish()

	// neg's carry (CF = src != 0) and imul's overflow-driven CF/OF.
	a = x86.NewAsm(base)
	a.MovRegImm64(x86.RAX, 3)
	a.NegReg64(x86.RAX)                             // CF=1
	a.AdcRegImm64(x86.RBX, 0)                       // rbx = 1
	a.ImulRegRegImm32(x86.RCX, x86.RAX, 0x40000000) // overflows: CF=OF=1
	a.Setcc(x86.CondO, x86.RDX)
	a.Pushfq()
	a.PopReg(x86.RSI)
	a.Ret()
	progs["neg-imul"] = a.MustFinish()

	return progs
}

// testFlagStress runs the lazy-flag stress programs: partial-flag
// writers immediately followed by flag consumers, so any engine that
// elides or defers flag computation must materialize exactly the
// interpreter's flag image.
func testFlagStress(t *testing.T, engine string) {
	const base = 0x401000
	for name, text := range flagStressPrograms(base) {
		interp := rawMachine(nil, base, text)
		if err := interp.Run(10_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		under := rawMachine(newEngine(t, engine), base, text)
		if err := under.Run(10_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffStates(t, name, engine, stateOf(interp), stateOf(under))
		if addr, diff := emu.DiffMemory(interp.Mem, under.Mem); diff {
			t.Errorf("%s: memory diverged at %#x", name, addr)
		}
	}
}
