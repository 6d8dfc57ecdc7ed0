package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"e9patch/internal/emu"
	"e9patch/internal/x86"
)

// testStaticCosts holds a block engine's accounting to the
// interpreter's where an engine that charges a block's fixed costs up
// front must take some back: an instruction that faults after part of
// its cost (an RMW's load, a pop's or a ret's read of the stack, also
// right after a followed call, a divide error, an invalid opcode), and
// a machine whose cost model changes between two Runs, FarDistance
// included. Errors, state and Counters must be the interpreter's.
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

	// (d) A divide error in a hopping block, raised by div and idiv at
	// each width with a register and a memory divisor: `site: mov rax,
	// lo; mov rdx, hi; mov rbx, divisor; lea r13, [rsp-16]; mov [r13],
	// rbx; jmp T` with `T: add rcx, 1; <op> rbx or [r13]; add rcx, 1;
	// jmp site`. A zero divisor, and a dividend of 1 << (8*w) over 1,
	// whose quotient does not fit. A memory divisor's load succeeds, and
	// the Mul after it is not charged.
	for _, w := range []int{1, 2, 4, 8} {
		for _, sub := range []byte{6, 7} {
			for _, mem := range []bool{false, true} {
				for _, divisor := range []uint64{0, 1} {
					lo, hi := uint64(0), uint64(1)
					if w == 1 {
						lo, hi = 1<<8, 0 // ax
					}
					s := x86.NewAsm(SiteBase)
					s.MovRegImm64(x86.RAX, lo)
					s.MovRegImm64(x86.RDX, hi)
					s.MovRegImm64(x86.RBX, divisor)
					s.Lea(x86.R13, x86.M(x86.RSP, -16))
					s.MovMemReg64(x86.M(x86.R13, 0), x86.RBX)
					s.JmpRel32(TrampBase)
					tr := x86.NewAsm(TrampBase)
					tr.AddRegImm64(x86.RCX, 1)
					div := encode(w, []byte{0xF6 | full(w)}, sub, mem, 0, 0)
					if !mem {
						div[len(div)-1] |= 3 // rbx
					}
					tr.Raw(div...)
					tr.AddRegImm64(x86.RCX, 1)
					tr.JmpRel32(SiteBase)
					name := fmt.Sprintf("divide-error/%s%d-%s-by-%d", map[byte]string{6: "div", 7: "idiv"}[sub], 8*w,
						map[bool]string{false: "r", true: "m"}[mem], divisor)
					wantFault(name, run(name, s.MustFinish(), tr.MustFinish(), 10_000, nil))
				}
			}
		}
	}

	// (e) An encoding the hardware rejects in a hopping block: FE /2–/7,
	// which the decoder accepts, on a register and on the slot `lea r13,
	// [rsp-16]`, raises #UD at the same RIP under every engine, priced
	// as an instruction that touches nothing.
	for sub := byte(2); sub <= 7; sub++ {
		for _, mem := range []bool{false, true} {
			s := x86.NewAsm(SiteBase)
			s.Lea(x86.R13, x86.M(x86.RSP, -16))
			s.JmpRel32(TrampBase)
			tr := x86.NewAsm(TrampBase)
			tr.AddRegImm64(x86.RCX, 1)
			tr.Raw(encode(1, []byte{0xFE}, sub, mem, 0, 0)...)
			tr.AddRegImm64(x86.RCX, 1)
			tr.JmpRel32(SiteBase)
			name := fmt.Sprintf("invalid-opcode/fe-%d-%s", sub, map[bool]string{false: "r", true: "m"}[mem])
			if got := run(name, s.MustFinish(), tr.MustFinish(), 10_000, nil); !strings.Contains(got, "#UD") {
				t.Errorf("%s: interp ended with %q, not #UD", name, got)
			}
		}
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

// encode assembles opcode op at width w with ModRM reg field reg and
// r/m rax, or the slot [r13] when mem is set, followed by the low
// immBytes bytes of imm.
func encode(w int, op []byte, reg byte, mem bool, imm uint64, immBytes int) []byte {
	var b []byte
	if w == 2 {
		b = append(b, 0x66)
	}
	var rex byte
	if w == 8 {
		rex |= 0x48
	}
	if mem {
		rex |= 0x41
	}
	if rex != 0 {
		b = append(b, rex)
	}
	b = append(b, op...)
	if mem {
		b = append(b, 0x40|reg<<3|5, 0) // [r13+0]
	} else {
		b = append(b, 0xC0|reg<<3) // rax
	}
	for i := 0; i < immBytes; i++ {
		b = append(b, byte(imm>>(8*i)))
	}
	return b
}

// full is the low opcode bit of a full-width (not byte) form.
func full(w int) byte {
	if w == 1 {
		return 0
	}
	return 1
}
