package e9patch

import (
	"math/rand"
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// Structured random programs: FuzzEngines runs them under every
// engine, and FuzzLockStep (lockstep_corpus_test.go) rewrites them under
// random selections and tactic switches and runs them in lock step.

// genProgram emits a random but always-terminating program. It returns
// the ELF image. The program allocates a buffer, runs `loops` passes of
// a randomized body (ALU soup, masked heap stores/loads, forward
// branches, leaf calls), then outputs a register checksum.
func genProgram(rng *rand.Rand, pie bool) ([]byte, error) {
	base := uint64(elf64.DefaultBase + elf64.TextVaddrOff)
	linkBase := base
	if pie {
		linkBase = elf64.TextVaddrOff
	}
	a := x86.NewAsm(linkBase)

	regs := []x86.Reg{x86.RAX, x86.RCX, x86.RDX, x86.RSI, x86.RDI, x86.R8, x86.R9, x86.R11, x86.R13}
	anyReg := func() x86.Reg { return regs[rng.Intn(len(regs))] }

	over := a.NewLabel()
	a.Jmp(over)

	// Leaf functions: mangle rdi, store through rbx, return.
	nLeaf := rng.Intn(3) + 1
	leaves := make([]*x86.Label, nLeaf)
	for i := range leaves {
		l := a.NewLabel()
		a.Bind(l)
		switch rng.Intn(3) {
		case 0:
			a.ImulRegRegImm32(x86.RDI, x86.RDI, int32(rng.Intn(97)+3))
		case 1:
			a.NotReg64(x86.RDI)
		case 2:
			a.AddRegImm64(x86.RDI, int32(rng.Intn(1000)))
		}
		a.MovRegReg64(x86.R10, x86.RDI)
		a.AndRegImm64(x86.R10, 0xFF8)
		a.MovMemReg64(x86.MIdx(x86.RBX, x86.R10, 1, 0), x86.RDI)
		a.MovRegReg64(x86.RAX, x86.RDI)
		a.Ret()
		leaves[i] = l
	}

	a.Bind(over)
	// rbx = malloc(8 KB).
	a.MovRegImm32(x86.RDI, 0x2000)
	a.MovRegImm64(x86.R10, workload.RTMalloc)
	a.CallReg(x86.R10)
	a.MovRegReg64(x86.RBX, x86.RAX)
	// Seed registers deterministically from the rng.
	for _, r := range regs {
		a.MovRegImm64(r, rng.Uint64())
	}
	// Counted outer loop in r12.
	a.XorRegReg32(x86.R12, x86.R12)
	top := a.NewLabel()
	a.Bind(top)

	nOps := rng.Intn(40) + 20
	for i := 0; i < nOps; i++ {
		switch rng.Intn(16) {
		case 0:
			a.AddRegReg64(anyReg(), anyReg())
		case 1:
			a.SubRegImm64(anyReg(), int32(rng.Intn(1<<20)))
		case 2:
			a.XorRegReg64(anyReg(), anyReg())
		case 3: // masked heap store (A2 site)
			a.MovRegReg64(x86.R10, anyReg())
			a.AndRegImm64(x86.R10, 0xFF8)
			a.MovMemReg64(x86.MIdx(x86.RBX, x86.R10, 1, 0), anyReg())
		case 4: // masked heap load
			a.MovRegReg64(x86.R10, anyReg())
			a.AndRegImm64(x86.R10, 0xFF8)
			a.MovRegMem64(anyReg(), x86.MIdx(x86.RBX, x86.R10, 1, 0))
		case 5: // forward conditional skip (A1 site)
			skip := a.NewLabel()
			cc := x86.Cond(rng.Intn(16))
			a.TestRegReg64(anyReg(), anyReg())
			if rng.Intn(2) == 0 {
				a.JccShort(cc, skip)
			} else {
				a.Jcc(cc, skip)
			}
			a.AddRegImm64(anyReg(), int32(rng.Intn(100)))
			a.ImulRegReg64(anyReg(), anyReg())
			a.Bind(skip)
		case 6: // leaf call
			a.MovRegReg64(x86.RDI, anyReg())
			a.Call(leaves[rng.Intn(nLeaf)])
		case 7:
			a.Lea(anyReg(), x86.MIdx(x86.RBX, x86.RCX, 1, int32(rng.Intn(64))))
		case 8:
			a.ShlRegImm64(anyReg(), uint8(rng.Intn(31)))
		case 9:
			a.MovZXRegMem8(anyReg(), x86.M(x86.RBX, int32(rng.Intn(256))))
		case 10: // byte store (1-byte-adjacent patching material)
			a.MovMemReg8(x86.M(x86.RBX, int32(rng.Intn(256))), x86.RAX)
		case 11: // push/pop pair (single-byte instructions: L2 material)
			r := anyReg()
			a.PushReg(r)
			a.PopReg(r)
		case 12: // carry chain: partial-flag writer feeding adc/sbb
			a.AddRegReg64(anyReg(), anyReg())
			a.AdcRegImm64(anyReg(), int32(rng.Intn(1<<16)))
			a.SbbRegReg64(anyReg(), anyReg())
		case 13: // setcc right after a shift (CF/OF from the shift lattice)
			a.ShlRegImm64(anyReg(), uint8(rng.Intn(31)))
			a.Setcc(x86.Cond(rng.Intn(16)), anyReg())
		case 14: // bare CF manipulation consumed by adc
			switch rng.Intn(3) {
			case 0:
				a.Cmc()
			case 1:
				a.Clc()
			case 2:
				a.Stc()
			}
			a.AdcRegImm64(anyReg(), int32(rng.Intn(100)))
		case 15: // flags into the data flow, and data into the flags
			if rng.Intn(2) == 0 {
				a.NegReg64(anyReg())
				a.Pushfq()
				a.PopReg(anyReg())
			} else {
				a.PushReg(anyReg())
				a.Popfq()
				a.Setcc(x86.Cond(rng.Intn(16)), anyReg())
				a.AdcRegImm64(anyReg(), int32(rng.Intn(100)))
			}
		}
	}

	a.AddRegImm64(x86.R12, 1)
	a.CmpRegImm64(x86.R12, int32(rng.Intn(6)+2))
	a.Jcc(x86.CondL, top)

	// Checksum of every register.
	a.XorRegReg32(x86.RDI, x86.RDI)
	for _, r := range regs {
		a.AddRegReg64(x86.RDI, r)
	}
	a.MovRegImm64(x86.R10, workload.RTOutput)
	a.CallReg(x86.R10)
	a.MovRegReg64(x86.RAX, x86.RDI)
	a.Ret()

	text, err := a.Finish()
	if err != nil {
		return nil, err
	}
	return elf64.Build(elf64.BuildSpec{
		PIE:  pie,
		Text: text,
		Data: make([]byte, 128),
	})
}

func fuzzRun(t *testing.T, bin []byte) *emu.Machine {
	t.Helper()
	m := workload.NewMachine(nil)
	entry, err := Load(m, bin)
	if err != nil {
		t.Fatal(err)
	}
	m.RIP = entry
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

// FuzzEngines is the engine-differential target: every random program
// must behave identically under both engines — the
// decode-per-step interpreter (the reference) and the block-lifting ir
// engine — same ExitCode, final registers,
// flags, output stream, memory image, and byte-identical Counters.
// The generator includes dedicated flag-stress material (adc/sbb
// chains, setcc after shifts, cmc/clc/stc, pushfq/popfq) aimed at the
// IR engine's lazy-flag machinery. Under plain `go test` the seed
// corpus runs; `go test -fuzz=FuzzEngines` explores further.
func FuzzEngines(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, pie bool) {
		rng := rand.New(rand.NewSource(seed))
		bin, err := genProgram(rng, pie)
		if err != nil {
			t.Skip() // assembler rejected the combination; not an engine bug
		}
		run := func(engine string) *emu.Machine {
			saved := workload.Engine
			workload.Engine = engine
			defer func() { workload.Engine = saved }()
			return fuzzRun(t, bin)
		}
		ref := run("interp")
		for _, name := range emu.EngineNames() {
			if name == "interp" {
				continue
			}
			em := run(name)
			if ref.ExitCode != em.ExitCode {
				t.Fatalf("exit: interp %#x, %s %#x", ref.ExitCode, name, em.ExitCode)
			}
			if ref.Regs != em.Regs || ref.RIP != em.RIP || ref.Flags != em.Flags {
				t.Fatalf("final state diverged:\ninterp regs=%x rip=%#x flags=%#x\n%s regs=%x rip=%#x flags=%#x",
					ref.Regs, ref.RIP, ref.Flags, name, em.Regs, em.RIP, em.Flags)
			}
			if ref.Counters != em.Counters {
				t.Fatalf("counters diverged:\ninterp %+v\n%s %+v", ref.Counters, name, em.Counters)
			}
			if len(ref.Output) != len(em.Output) {
				t.Fatalf("output length: interp %d, %s %d", len(ref.Output), name, len(em.Output))
			}
			for i := range ref.Output {
				if ref.Output[i] != em.Output[i] {
					t.Fatalf("output[%d]: interp %#x, %s %#x", i, ref.Output[i], name, em.Output[i])
				}
			}
			if addr, diff := emu.DiffMemory(ref.Mem, em.Mem); diff {
				t.Fatalf("memory diverged at %#x (interp vs %s)", addr, name)
			}
		}
	})
}
