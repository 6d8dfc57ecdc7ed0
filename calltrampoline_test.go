package e9patch

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/lang"
	"e9patch/internal/patch"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// buildRecipe lowers a recipe's spec with its payload into a Config
// ready for Rewrite/Plan.
func buildRecipe(t *testing.T, rec workload.Recipe) Config {
	t.Helper()
	sp, err := lang.ParseSpec(rec.Spec)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := rec.BuildPayload()
	if err != nil {
		t.Fatal(err)
	}
	br, err := sp.Build(payload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Select:    br.Select,
		Template:  br.Template,
		Inject:    br.Inject,
		ReserveVA: append(br.ReserveVA, workload.ReserveVA()...),
	}
	return cfg
}

// patchedAddrs collects the runtime addresses the rewrite actually
// patched (selected locations where some tactic succeeded).
func patchedAddrs(res *Result) map[uint64]bool {
	out := make(map[uint64]bool, len(res.Locations))
	for _, loc := range res.Locations {
		if loc.Tactic != patch.TacticNone {
			out[loc.Addr] = true
		}
	}
	return out
}

// readU64 reads a little-endian u64 from emulated memory.
func readU64(t *testing.T, m interface {
	ReadBytes(addr uint64, n int) ([]byte, bool)
}, addr uint64) uint64 {
	t.Helper()
	raw, ok := m.ReadBytes(addr, 8)
	if !ok {
		t.Fatalf("read %#x: unmapped", addr)
	}
	return binary.LittleEndian.Uint64(raw)
}

// TestSyscallTraceRecipe runs the shipped syscall_trace recipe end to
// end: rewrite the branchy kernel, execute it under the emulator, and
// assert the injected trace() function observably ran — the runtime
// output stream gains one call-site address per instrumented call, and
// the payload's in-memory invocation counter matches.
func TestSyscallTraceRecipe(t *testing.T) {
	rec, ok := workload.RecipeByName("syscall_trace")
	if !ok {
		t.Fatal("syscall_trace recipe missing")
	}
	for _, pie := range []bool{false, true} {
		name := "exec"
		if pie {
			name = "pie"
		}
		t.Run(name, func(t *testing.T) {
			prog, err := workload.BuildKernel("branchy", pie)
			if err != nil {
				t.Fatal(err)
			}
			cfg := buildRecipe(t, rec)
			res, err := Rewrite(prog.ELF, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Total == 0 {
				t.Fatal("no indirect calls selected")
			}
			if len(res.Injections) == 0 {
				t.Fatal("no payload injected")
			}
			patched := patchedAddrs(res)
			if len(patched) == 0 {
				t.Fatal("no indirect call patched")
			}

			orig := runBinary(t, prog.ELF, nil)
			instr := runBinary(t, res.Output, nil)

			// Every output element is either a traced call-site address
			// or part of the program's own output stream, which must
			// survive unchanged.
			var sites, program []uint64
			for _, v := range instr.Output {
				if patched[v] {
					sites = append(sites, v)
				} else {
					program = append(program, v)
				}
			}
			if len(sites) == 0 {
				t.Fatal("trace() never reported a call site")
			}
			if len(program) != len(orig.Output) {
				t.Fatalf("program output %d values, want %d", len(program), len(orig.Output))
			}
			for i := range program {
				if program[i] != orig.Output[i] {
					t.Fatalf("program output[%d] = %#x, want %#x", i, program[i], orig.Output[i])
				}
			}
			if instr.ExitCode != orig.ExitCode {
				t.Fatalf("exit code %#x != %#x", instr.ExitCode, orig.ExitCode)
			}
			// branchy makes one runtime call per patched site, so full
			// coverage means every patched site reports exactly once.
			if len(sites) != len(patched) {
				t.Errorf("traced %d call sites, want %d (each patched site runs once)", len(sites), len(patched))
			}
			counter := readU64(t, instr.Mem, workload.TracePayloadCounterAddr())
			if counter != uint64(len(sites)) {
				t.Errorf("payload counter = %d, want %d", counter, len(sites))
			}
			// The counter lives in the injected .data page: its presence
			// proves the payload segments were mapped at their link
			// addresses even under PIE load bias.
			if orig.Mem != nil {
				if _, mapped := orig.Mem.ReadBytes(workload.TracePayloadCounterAddr(), 8); mapped {
					t.Error("payload address mapped in the uninstrumented run")
				}
			}
		})
	}
}

// TestBranchCoverageRecipe runs the shipped branch_coverage recipe:
// every executed conditional branch must set its bitmap slot, and the
// program's own behaviour must be untouched.
func TestBranchCoverageRecipe(t *testing.T) {
	rec, ok := workload.RecipeByName("branch_coverage")
	if !ok {
		t.Fatal("branch_coverage recipe missing")
	}
	prog, err := workload.BuildKernel("branchy", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := buildRecipe(t, rec)
	res, err := Rewrite(prog.ELF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	patched := patchedAddrs(res)
	if len(patched) == 0 {
		t.Fatal("no conditional branch patched")
	}

	orig := runBinary(t, prog.ELF, nil)
	instr := runBinary(t, res.Output, nil)
	if len(instr.Output) != len(orig.Output) {
		t.Fatalf("output length %d != %d", len(instr.Output), len(orig.Output))
	}
	for i := range orig.Output {
		if instr.Output[i] != orig.Output[i] {
			t.Fatalf("output[%d] = %#x != %#x", i, instr.Output[i], orig.Output[i])
		}
	}
	if instr.ExitCode != orig.ExitCode {
		t.Fatalf("exit code %#x != %#x", instr.ExitCode, orig.ExitCode)
	}

	counter := readU64(t, instr.Mem, workload.CoverageCounterAddr())
	if counter == 0 {
		t.Fatal("coverage counter never bumped")
	}
	bitmap, okRead := instr.Mem.ReadBytes(workload.CoverageBitmapAddr(), int(workload.CoverageBitmapSize))
	if !okRead {
		t.Fatal("coverage bitmap unmapped")
	}
	slots := make(map[uint64]bool, len(patched))
	for addr := range patched {
		slots[addr&0xFFFF] = true
	}
	set := 0
	for idx, b := range bitmap {
		if b == 0 {
			continue
		}
		set++
		if !slots[uint64(idx)] {
			t.Errorf("bitmap[%#x] set but no patched branch maps there", idx)
		}
	}
	if set == 0 {
		t.Fatal("no bitmap slot set")
	}
}

// TestCallArgumentMarshalling drives every argument kind through one
// call patch: a probe payload forwards its six arguments (addr, size,
// target, next, asm, 42) to the output stream, and the test checks
// each group of six against the disassembly of the original binary —
// including reading the asm string back out of the injected table.
func TestCallArgumentMarshalling(t *testing.T) {
	savedIters := workload.KernelIters
	workload.KernelIters = 60
	defer func() { workload.KernelIters = savedIters }()

	prog, err := workload.BuildKernel("branchy", false)
	if err != nil {
		t.Fatal(err)
	}

	// probe(a0..a5): forward each argument to RTOutput in order.
	const payloadBase uint64 = 0x9_1000_0000
	a := x86.NewAsm(payloadBase + elf64.TextVaddrOff)
	a.MovRegImm64(x86.R11, workload.RTOutput)
	a.CallReg(x86.R11) // rdi = a0
	for _, src := range []x86.Reg{x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9} {
		a.MovRegReg64(x86.RDI, src)
		a.CallReg(x86.R11)
	}
	a.Ret()
	text, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := elf64.Build(elf64.BuildSpec{
		Base: payloadBase,
		Text: text,
		Symbols: []elf64.Sym{
			{Name: "probe", Addr: payloadBase + elf64.TextVaddrOff, Size: uint64(len(text))},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	sp, err := lang.FromParts("jcc & short", "call probe(addr, size, target, next, asm, 42)")
	if err != nil {
		t.Fatal(err)
	}
	br, err := sp.Build(payload)
	if err != nil {
		t.Fatal(err)
	}
	if br.FnName != "probe" || br.FnAddr != payloadBase+elf64.TextVaddrOff {
		t.Fatalf("resolved %s@%#x", br.FnName, br.FnAddr)
	}
	cfg := Config{
		Select:    br.Select,
		Template:  br.Template,
		Inject:    br.Inject,
		ReserveVA: append(br.ReserveVA, workload.ReserveVA()...),
	}
	res, err := Rewrite(prog.ELF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	patched := patchedAddrs(res)
	if len(patched) == 0 {
		t.Fatal("no short jcc patched")
	}
	// A rewrite reports the images it mapped as its plan records them,
	// the asm string table Prepare added included.
	p, err := Plan(prog.ELF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Injections, p.Injections) {
		t.Errorf("Rewrite maps %d images, Plan records %d, or they differ", len(res.Injections), len(p.Injections))
	}
	// The asm string table is a second injection next to the payload's
	// loadable segments.
	segBytes, injected := 0, 0
	for _, inj := range br.Inject {
		segBytes += len(inj.Data)
	}
	for _, inj := range res.Injections {
		injected += len(inj.Data)
	}
	if injected <= segBytes {
		t.Errorf("injected %d bytes; expected payload segments (%d) plus an asm string table",
			injected, segBytes)
	}

	// Disassemble the original text to know each site's ground truth.
	f, err := elf64.Parse(prog.ELF)
	if err != nil {
		t.Fatal(err)
	}
	tx, taddr, err := f.Text()
	if err != nil {
		t.Fatal(err)
	}
	byAddr := make(map[uint64]*x86.Inst)
	rec, _ := disasm.Recover(disasm.ModeLinear, tx, taddr)
	insts := rec.Insts
	for i := range insts {
		in := new(x86.Inst)
		insts[i].DecodeInto(in)
		byAddr[in.Addr] = in
	}

	orig := runBinary(t, prog.ELF, nil)
	instr := runBinary(t, res.Output, nil)
	if instr.ExitCode != orig.ExitCode {
		t.Fatalf("exit code %#x != %#x", instr.ExitCode, orig.ExitCode)
	}
	probes := len(instr.Output) - len(orig.Output)
	if probes <= 0 || probes%6 != 0 {
		t.Fatalf("probe emitted %d extra values, want a positive multiple of 6", probes)
	}
	for g := 0; g+6 <= probes; g += 6 {
		grp := instr.Output[g : g+6]
		in := byAddr[grp[0]]
		if in == nil || !patched[grp[0]] {
			t.Fatalf("group %d: addr %#x is not a patched instruction", g/6, grp[0])
		}
		if grp[1] != uint64(in.Len) {
			t.Errorf("site %#x: size = %d, want %d", in.Addr, grp[1], in.Len)
		}
		if want := in.Target(); grp[2] != want {
			t.Errorf("site %#x: target = %#x, want %#x", in.Addr, grp[2], want)
		}
		if want := in.Addr + uint64(in.Len); grp[3] != want {
			t.Errorf("site %#x: next = %#x, want %#x", in.Addr, grp[3], want)
		}
		want := in.String()
		raw, _ := instr.Mem.ReadBytes(grp[4], len(want)+1)
		if string(raw[:len(want)]) != want || raw[len(want)] != 0 {
			t.Errorf("site %#x: asm string at %#x = %q, want %q\\0", in.Addr, grp[4], raw, want)
		}
		if grp[5] != 42 {
			t.Errorf("site %#x: static arg = %d, want 42", in.Addr, grp[5])
		}
	}
	// The program's own output rides after the probes' values.
	tail := instr.Output[probes:]
	for i := range orig.Output {
		if tail[i] != orig.Output[i] {
			t.Fatalf("program output[%d] = %#x, want %#x", i, tail[i], orig.Output[i])
		}
	}
}

// TestApplyRejectsHostileInjections treats the plan as untrusted: a
// tampered injection list must fail Apply's revalidation with
// ErrMalformedBinary, never corrupt the output.
func TestApplyRejectsHostileInjections(t *testing.T) {
	rec, _ := workload.RecipeByName("syscall_trace")
	prog, err := workload.BuildKernel("branchy", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := buildRecipe(t, rec)
	ref, err := Plan(prog.ELF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Injections) == 0 {
		t.Fatal("recipe plan has no injections")
	}
	fresh := func() *PatchPlan {
		p, err := DecodePlan(enc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	tampers := map[string]func(p *PatchPlan){
		"empty-data":    func(p *PatchPlan) { p.Injections[0].Data = nil },
		"address-wrap":  func(p *PatchPlan) { p.Injections[0].Addr = ^uint64(0) - 4 },
		"segment-clash": func(p *PatchPlan) { p.Injections[0].Addr = 0x400000 },
		"self-overlap": func(p *PatchPlan) {
			p.Injections = append(p.Injections, p.Injections[0])
		},
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			p := fresh()
			tamper(p)
			_, err := Apply(prog.ELF, p)
			if err == nil {
				t.Fatal("tampered plan applied cleanly")
			}
			if !errors.Is(err, ErrMalformedBinary) {
				t.Fatalf("want ErrMalformedBinary, got %v", err)
			}
		})
	}

	// The untampered plan still applies.
	if _, err := Apply(prog.ELF, fresh()); err != nil {
		t.Fatalf("pristine plan: %v", err)
	}
}
