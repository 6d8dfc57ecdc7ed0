package enginetest

import (
	"fmt"
	"testing"

	"e9patch/internal/emu"
	"e9patch/internal/x86"
)

// testStaticCosts holds a block engine's accounting to the
// interpreter's where an engine that charges a block's fixed costs up
// front must take some back: an instruction that faults after part of
// its cost (an RMW's load, a pop's or a ret's read of the stack, also
// right after a followed call), and a machine whose cost model changes
// between two Runs, FarDistance included. Errors, state and Counters
// must be the interpreter's.
func testStaticCosts(t *testing.T, engine string) {
	// run runs the programs under the interpreter and the engine,
	// calling between (if set) after a first Run of budget
	// instructions and running on to the end, and returns the
	// interpreter's error text.
	run := func(name string, site, tramp []byte, budget uint64, between func(*emu.Machine)) string {
		t.Helper()
		var ms [2]*emu.Machine
		var errs [2]string
		for i, eng := range []emu.Engine{nil, newEngine(t, engine)} {
			m := HopMachine(eng, site, tramp, nil)
			err := m.Run(budget)
			if between != nil {
				between(m)
				err = m.Run(1_000_000)
			}
			if err != nil {
				errs[i] = err.Error()
			}
			ms[i] = m
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: interp ended with %q, %s with %q", name, errs[0], engine, errs[1])
		}
		diffStates(t, name, engine, stateOf(ms[0]), stateOf(ms[1]))
		return errs[0]
	}
	wantFault := func(name, got string) {
		t.Helper()
		if got == "" {
			t.Errorf("%s: interp ended without a fault", name)
		}
	}

	// (a) A faulting memory access in the middle of a hopping block:
	// `site: mov ebx, unmapped; add rax, 1; jmp T` with `T: add rdx, 1;
	// <op>; add rcx, 1; jmp site`. The interpreter charges the op's base
	// cost and what it charged before the load faulted, and nothing of
	// what follows in the block.
	for _, op := range []struct {
		name  string
		bytes []byte
	}{
		{"add-mem-reg", []byte{0x48, 0x01, 0x03}},        // add [rbx], rax: load, store
		{"add-mem-imm", []byte{0x48, 0x83, 0x03, 0x05}},  // add qword [rbx], 5
		{"cmp-mem-reg", []byte{0x48, 0x39, 0x03}},        // cmp [rbx], rax: load only
		{"not-mem", []byte{0x48, 0xF7, 0x13}},            // not qword [rbx]
		{"imul-reg-mem", []byte{0x48, 0x0F, 0xAF, 0x03}}, // imul rax, [rbx]: load, Mul
		{"imul-mem-imm", []byte{0x48, 0x6B, 0x03, 0x07}}, // imul rax, [rbx], 7
		{"push-mem", []byte{0xFF, 0x33}},                 // push qword [rbx]: load, push
		{"call-mem", []byte{0xFF, 0x13}},                 // call [rbx]: load, push, CallRet
		{"jmp-mem", []byte{0xFF, 0x23}},                  // jmp [rbx]
		{"mov-load", []byte{0x48, 0x8B, 0x03}},           // mov rax, [rbx]
		{"add-reg-mem", []byte{0x48, 0x03, 0x03}},        // add rax, [rbx]
	} {
		s := x86.NewAsm(SiteBase)
		s.MovRegImm32(x86.RBX, hopUnmapped)
		s.AddRegImm64(x86.RAX, 1)
		s.JmpRel32(TrampBase)
		tr := x86.NewAsm(TrampBase)
		tr.AddRegImm64(x86.RDX, 1)
		tr.Raw(op.bytes...)
		tr.AddRegImm64(x86.RCX, 1)
		tr.JmpRel32(SiteBase)
		name := "fault/" + op.name
		wantFault(name, run(name, s.MustFinish(), tr.MustFinish(), 10_000, nil))
	}

	// (b) A stack read that faults right after a followed call: `site:
	// add rax, 1; call F` with `F: mov rsp, unmapped; <op>`. The call's
	// push, CallRet and far branch are retired; the read is not.
	for _, op := range []struct {
		name  string
		bytes []byte
	}{
		{"pop", []byte{0x58}},                 // pop rax: the read, then Mem
		{"popfq", []byte{0x9D}},               // popfq
		{"ret", []byte{0xC3}},                 // ret: the read, then Mem and CallRet
		{"ret-imm", []byte{0xC2, 0x10, 0x00}}, // ret 16
	} {
		s := x86.NewAsm(SiteBase)
		s.AddRegImm64(x86.RAX, 1)
		s.CallRel32(TrampBase)
		tr := x86.NewAsm(TrampBase)
		tr.MovRegImm64(x86.RSP, hopUnmapped)
		tr.Raw(op.bytes...)
		name := "call-then-fault/" + op.name
		wantFault(name, run(name, s.MustFinish(), tr.MustFinish(), 10_000, nil))
	}

	// (c) The cost model changes between two Runs on one machine: a
	// 40-trip loop whose body hops far to a trampoline that multiplies,
	// stores, loads, calls a near leaf and hops back. The first Run
	// stops on the budget, anywhere in the loop; the second runs on to
	// hlt under other weights, and under a FarDistance that makes every
	// jump far or none of them.
	s := x86.NewAsm(SiteBase)
	top := s.Addr()
	s.AddRegImm64(x86.RAX, 1)
	s.JmpRel32(TrampBase)
	back := s.Addr()
	s.AddRegImm64(x86.RCX, 1)
	s.CmpRegImm64(x86.RCX, 40)
	s.JccRel32(x86.CondL, top)
	s.Raw(0xF4) // hlt
	tr := x86.NewAsm(TrampBase)
	tr.ImulRegRegImm32(x86.RDX, x86.RAX, 3)
	tr.MovMemReg64(x86.M(x86.RSP, -16), x86.RDX)
	tr.AddRegMem64(x86.RDX, x86.M(x86.RSP, -16))
	leaf := tr.NewLabel()
	tr.Call(leaf)
	tr.JmpRel32(back)
	tr.Bind(leaf)
	tr.PushReg(x86.RAX)
	tr.PopReg(x86.RAX)
	tr.Ret()
	site, tramp := s.MustFinish(), tr.MustFinish()
	for _, far := range []uint64{4, 1 << 20} {
		for _, budget := range []uint64{3, 7, 12, 50, 101, 333} {
			cost := func(m *emu.Machine) {
				m.Cost = emu.CostModel{ALU: 2, Mem: 3, BranchTaken: 5, FarJump: 7, FarDistance: far,
					CallRet: 11, Mul: 13, Signal: 17, Runtime: 19}
			}
			name := fmt.Sprintf("cost-change/far-%d/after-%d", far, budget)
			if got := run(name, site, tramp, budget, cost); got != "" {
				t.Errorf("%s: interp ended with %q", name, got)
			}
		}
	}
}
