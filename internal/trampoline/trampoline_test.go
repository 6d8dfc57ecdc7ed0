package trampoline

import (
	"testing"

	"e9patch/internal/x86"
)

func decodeAt(t *testing.T, code []byte, addr uint64) x86.Inst {
	t.Helper()
	in, err := x86.Decode(code, addr)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func decodeSeq(t *testing.T, code []byte, addr uint64) []x86.Inst {
	t.Helper()
	var out []x86.Inst
	for off := 0; off < len(code); {
		in := decodeAt(t, code[off:], addr+uint64(off))
		out = append(out, in)
		off += in.Len
	}
	return out
}

func TestEmptySimpleInstruction(t *testing.T) {
	// mov %rax,(%rbx) at 0x400000 displaced to 0x700000.
	a := x86.NewAsm(0x400000)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX)
	inst := decodeAt(t, a.MustFinish(), 0x400000)

	sized, err := Empty{}.AppendCode(nil, &inst, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Empty{}.AppendCode(nil, &inst, 0x700000)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != len(sized) {
		t.Fatalf("size %d != emitted %d", len(sized), len(code))
	}
	seq := decodeSeq(t, code, 0x700000)
	if len(seq) != 2 {
		t.Fatalf("want displaced+jmp, got %d instructions", len(seq))
	}
	if string(seq[0].Bytes) != string(inst.Bytes) {
		t.Error("displaced instruction bytes changed")
	}
	if !seq[1].IsJmp() || seq[1].Target() != inst.Addr+uint64(inst.Len) {
		t.Errorf("return jump target %#x", seq[1].Target())
	}
}

func TestEmptyJcc(t *testing.T) {
	// je +0x27 (short) displaced.
	inst := decodeAt(t, []byte{0x74, 0x27}, 0x422ad5)
	code, err := Empty{}.AppendCode(nil, &inst, 0x744513d0)
	if err != nil {
		t.Fatal(err)
	}
	seq := decodeSeq(t, code, 0x744513d0)
	if len(seq) != 2 || !seq[0].IsJcc() || !seq[1].IsJmp() {
		t.Fatalf("want jcc+jmp, got %d instructions", len(seq))
	}
	if seq[0].Target() != inst.Target() {
		t.Errorf("jcc target %#x, want %#x", seq[0].Target(), inst.Target())
	}
	if seq[1].Target() != inst.Addr+2 {
		t.Errorf("fallthrough %#x, want %#x", seq[1].Target(), inst.Addr+2)
	}
	// The emulated condition must match.
	if x86.Cond(seq[0].Opcode&0xF) != x86.CondE {
		t.Error("condition changed")
	}
}

func TestEmptyDirectJmp(t *testing.T) {
	inst := decodeAt(t, []byte{0xEB, 0x10}, 0x400000)
	code, err := Empty{}.AppendCode(nil, &inst, 0x500000)
	if err != nil {
		t.Fatal(err)
	}
	seq := decodeSeq(t, code, 0x500000)
	if len(seq) != 1 || !seq[0].IsJmp() {
		t.Fatal("want single jmp")
	}
	if seq[0].Target() != inst.Target() {
		t.Errorf("target %#x, want %#x", seq[0].Target(), inst.Target())
	}
}

func TestEmptyDirectCall(t *testing.T) {
	a := x86.NewAsm(0x400100)
	a.CallRel32(0x400500)
	inst := decodeAt(t, a.MustFinish(), 0x400100)
	code, err := Empty{}.AppendCode(nil, &inst, 0x600000)
	if err != nil {
		t.Fatal(err)
	}
	seq := decodeSeq(t, code, 0x600000)
	// push imm32; jmp (return address 0x400105 has no high bits).
	if len(seq) != 2 {
		t.Fatalf("got %d instructions", len(seq))
	}
	if seq[0].Opcode != 0x68 {
		t.Errorf("first inst opcode %#x, want push imm32", seq[0].Opcode)
	}
	if !seq[1].IsJmp() || seq[1].Target() != 0x400500 {
		t.Errorf("jmp target %#x", seq[1].Target())
	}
}

func TestEmptyHighAddressCall(t *testing.T) {
	// PIE-style high return address needs the extra high-dword store.
	a := x86.NewAsm(0x5555_5555_4100)
	a.CallRel32(0x5555_5555_9000)
	inst := decodeAt(t, a.MustFinish(), 0x5555_5555_4100)
	code, err := Empty{}.AppendCode(nil, &inst, 0x5555_4444_0000)
	if err != nil {
		t.Fatal(err)
	}
	seq := decodeSeq(t, code, 0x5555_4444_0000)
	if len(seq) != 3 {
		t.Fatalf("got %d instructions, want push+store+jmp", len(seq))
	}
	if seq[1].Opcode != 0xC7 || seq[1].MemBase != x86.RSP {
		t.Error("missing high-dword store to (rsp+4)")
	}
}

func TestEmptyIndirectCall(t *testing.T) {
	inst := decodeAt(t, []byte{0xFF, 0xD0}, 0x400000) // call *%rax
	code, err := Empty{}.AppendCode(nil, &inst, 0x500000)
	if err != nil {
		t.Fatal(err)
	}
	seq := decodeSeq(t, code, 0x500000)
	last := seq[len(seq)-1]
	if !last.IsJmp() || last.RelSize != 0 {
		t.Error("indirect call not rewritten to indirect jmp")
	}
}

func TestEmptyIndirectCallRIPRel(t *testing.T) {
	inst := decodeAt(t, []byte{0xFF, 0x15, 0x6F, 0x2A, 0x2A, 0x00}, 0x422a5b)
	code, err := Empty{}.AppendCode(nil, &inst, 0x500000)
	if err != nil {
		t.Fatal(err)
	}
	seq := decodeSeq(t, code, 0x500000)
	last := seq[len(seq)-1]
	if !last.IsJmp() || !last.RIPRel {
		t.Fatal("want rip-relative indirect jmp")
	}
	origTarget := inst.Addr + uint64(inst.Len) + uint64(inst.Disp())
	newTarget := last.Addr + uint64(last.Len) + uint64(last.Disp())
	if origTarget != newTarget {
		t.Errorf("pointer slot moved: %#x -> %#x", origTarget, newTarget)
	}
}

func TestEmptyRet(t *testing.T) {
	inst := decodeAt(t, []byte{0xC3}, 0x400000)
	code, err := Empty{}.AppendCode(nil, &inst, 0x500000)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 1 || code[0] != 0xC3 {
		t.Errorf("ret trampoline = % x", code)
	}
}

func TestEmptyRIPRelStore(t *testing.T) {
	// mov %eax,0x100(%rip)
	inst := decodeAt(t, []byte{0x89, 0x05, 0x00, 0x01, 0x00, 0x00}, 0x400000)
	code, err := Empty{}.AppendCode(nil, &inst, 0x500000)
	if err != nil {
		t.Fatal(err)
	}
	seq := decodeSeq(t, code, 0x500000)
	if seq[0].Disp() == inst.Disp() {
		t.Error("rip displacement not relocated")
	}
	origTarget := inst.Addr + uint64(inst.Len) + uint64(inst.Disp())
	newTarget := seq[0].Addr + uint64(seq[0].Len) + uint64(seq[0].Disp())
	if origTarget != newTarget {
		t.Error("rip target changed")
	}
}

func TestCounterTemplate(t *testing.T) {
	a := x86.NewAsm(0x400000)
	a.MovMemReg64(x86.M(x86.RBX, 8), x86.RAX)
	inst := decodeAt(t, a.MustFinish(), 0x400000)

	c := Counter{Addr: 0x601000}
	sized, err := c.AppendCode(nil, &inst, inst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	code, err := c.AppendCode(nil, &inst, 0x700000)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != len(sized) {
		t.Fatalf("size mismatch %d != %d", len(sized), len(code))
	}
	seq := decodeSeq(t, code, 0x700000)
	// push, pushfq, movabs, addq, popfq, pop, displaced, jmp = 8.
	if len(seq) != 8 {
		t.Fatalf("got %d instructions", len(seq))
	}
	if string(seq[6].Bytes) != string(inst.Bytes) {
		t.Error("displaced bytes changed")
	}
}

func TestRawTemplate(t *testing.T) {
	inst := decodeAt(t, []byte{0x89, 0xDD}, 0x422a61) // mov %ebx,%ebp
	r := Raw{Code: func(a *x86.Asm, in *x86.Inst, resume uint64) error {
		a.Raw(in.Bytes...)                     // original instruction
		a.MovMemImm8(x86.M(x86.RBX, 0x398), 1) // the CVE patch body
		a.JmpRel32(0x422a63)                   // back to the jmpq
		return a.Err()
	}}
	code, err := r.AppendCode(nil, &inst, 0x49699eda)
	if err != nil {
		t.Fatal(err)
	}
	seq := decodeSeq(t, code, 0x49699eda)
	if len(seq) != 3 || !seq[2].IsJmp() || seq[2].Target() != 0x422a63 {
		t.Fatalf("raw trampoline shape wrong: %d instructions", len(seq))
	}
}

func TestPickScratchAvoidsOperands(t *testing.T) {
	a := x86.NewAsm(0)
	a.MovMemReg64(x86.MIdx(x86.RAX, x86.RCX, 8, 0), x86.RDX)
	inst := decodeAt(t, a.MustFinish(), 0)
	regs, ok := PickScratch(&inst, 3)
	if !ok {
		t.Fatal("PickScratch failed on a two-register operand")
	}
	for _, r := range regs {
		if r == x86.RAX || r == x86.RCX {
			t.Errorf("scratch %v collides with operand", r)
		}
	}
}
