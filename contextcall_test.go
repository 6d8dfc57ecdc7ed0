package e9patch

import (
	"fmt"
	"math/rand"
	"testing"

	"e9patch/internal/emu"
	"e9patch/internal/trampoline"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestContextCallInstrumentation verifies the general instrumentation
// template, and the call trampoline passing the instruction's address,
// on the five kernels under A1 and A2 and on one random PIE program:
// behaviour is unchanged, the full register context survives, and every
// patched site invokes the bound routine, with its own address, exactly
// as often as the original run executed that address (counted
// instruction by instruction with emu.Machine.Trace). An epilogue that
// copied a patched site, or skipped a trampoline, changes a count.
func TestContextCallInstrumentation(t *testing.T) {
	const fnAddr = 0x3_0000_0000
	type trial struct {
		name string
		bin  []byte
		sel  Selector
	}
	var trials []trial
	for _, arch := range []string{"branchy", "memstream", "matrix", "pointer", "callheavy"} {
		prog, err := workload.BuildKernel(arch, false)
		if err != nil {
			t.Fatal(err)
		}
		trials = append(trials, trial{arch + "/A1", prog.ELF, SelectJumps}, trial{arch + "/A2", prog.ELF, SelectHeapWrites})
	}
	bin, err := genProgram(rand.New(rand.NewSource(1003)), true)
	if err != nil {
		t.Fatal(err)
	}
	trials = append(trials, trial{"genProgram/pie/A2", bin, SelectHeapWrites})

	run := func(bin []byte, prep func(m *emu.Machine)) (*emu.Machine, error) {
		m := workload.NewMachine(nil)
		prep(m)
		entry, err := Load(m, bin)
		if err != nil {
			return nil, err
		}
		m.RIP = entry
		return m, m.Run(500_000_000)
	}
	templates := []struct {
		name string
		tmpl Template
	}{
		{"contextcall", trampoline.ContextCall{Fn: fnAddr}},
		{"call", &trampoline.Call{Fn: fnAddr, Args: []trampoline.Arg{{Kind: trampoline.ArgAddr}}}},
	}
	for _, tc := range trials {
		executed := map[uint64]uint64{}
		orig, err := run(tc.bin, func(m *emu.Machine) {
			m.Trace = func(in *x86.Inst) { executed[in.Addr]++ }
		})
		if err != nil {
			t.Fatalf("%s: original run: %v", tc.name, err)
		}
		for _, tt := range templates {
			name := tc.name + "/" + tt.name
			res, err := Rewrite(tc.bin, Config{
				Select:   tc.sel,
				Template: tt.tmpl,
				ReserveVA: append(workload.ReserveVA(),
					[2]uint64{fnAddr &^ 0xFFF, fnAddr + 0x1000}),
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Stats.Patched() == 0 {
				t.Fatalf("%s: nothing patched", name)
			}
			hits := map[uint64]uint64{}
			m, err := run(res.Output, func(m *emu.Machine) {
				m.Runtime[fnAddr] = func(m *emu.Machine) error {
					hits[m.Regs[x86.RDI]]++
					return nil
				}
			})
			if err != nil {
				t.Fatalf("%s: rewritten run: %v", name, err)
			}
			if fmt.Sprint(m.Output) != fmt.Sprint(orig.Output) || m.ExitCode != orig.ExitCode {
				t.Fatalf("%s: behaviour diverged: output %v exit %#x, original %v exit %#x",
					name, m.Output, m.ExitCode, orig.Output, orig.ExitCode)
			}
			patched := map[uint64]bool{}
			var total uint64
			for _, lr := range res.Locations {
				if lr.Tactic == 0 {
					continue
				}
				patched[lr.Addr] = true
				total += executed[lr.Addr]
				if hits[lr.Addr] != executed[lr.Addr] {
					t.Errorf("%s: site %#x (%v) instrumented %d times, executed %d times", name, lr.Addr, lr.Tactic, hits[lr.Addr], executed[lr.Addr])
				}
			}
			for addr := range hits {
				if !patched[addr] {
					t.Errorf("%s: instrumentation fired for unpatched address %#x", name, addr)
				}
			}
			if total == 0 {
				t.Errorf("%s: no patched site was executed", name)
			}
		}
	}
}
