package x86

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestAsmKnownEncodings(t *testing.T) {
	cases := []struct {
		name string
		emit func(a *Asm)
		want []byte
	}{
		{"mov (rbx),rax", func(a *Asm) { a.MovMemReg64(M(RBX, 0), RAX) }, []byte{0x48, 0x89, 0x03}},
		{"add rax,32", func(a *Asm) { a.AddRegImm64(RAX, 32) }, []byte{0x48, 0x83, 0xC0, 0x20}},
		{"xor rcx,rax", func(a *Asm) { a.XorRegReg64(RCX, RAX) }, []byte{0x48, 0x31, 0xC1}},
		{"cmpl -4(rbx),77", func(a *Asm) { a.CmpMemImm8(M(RBX, -4), 77) }, []byte{0x83, 0x7B, 0xFC, 0x4D}},
		{"testb 0x18(rbx),2", func(a *Asm) { a.TestMemImm8(M(RBX, 0x18), 2) }, []byte{0xF6, 0x43, 0x18, 0x02}},
		{"mov ebp,ebx", func(a *Asm) { a.MovRegReg32(RBP, RBX) }, []byte{0x89, 0xDD}},
		{"push rax", func(a *Asm) { a.PushReg(RAX) }, []byte{0x50}},
		{"pop rax", func(a *Asm) { a.PopReg(RAX) }, []byte{0x58}},
		{"push r12", func(a *Asm) { a.PushReg(R12) }, []byte{0x41, 0x54}},
		{"ret", func(a *Asm) { a.Ret() }, []byte{0xC3}},
		{"movb 0x398(rax),1", func(a *Asm) { a.MovMemImm8(M(RAX, 0x398), 1) },
			[]byte{0xC6, 0x80, 0x98, 0x03, 0x00, 0x00, 0x01}},
		{"store (rsp)", func(a *Asm) { a.MovMemReg64(M(RSP, 0), RAX) }, []byte{0x48, 0x89, 0x04, 0x24}},
		{"store (rbp)", func(a *Asm) { a.MovMemReg64(M(RBP, 0), RAX) }, []byte{0x48, 0x89, 0x45, 0x00}},
		{"store (r13)", func(a *Asm) { a.MovMemReg64(M(R13, 0), RAX) }, []byte{0x49, 0x89, 0x45, 0x00}},
		{"store (r12)", func(a *Asm) { a.MovMemReg64(M(R12, 0), RAX) }, []byte{0x49, 0x89, 0x04, 0x24}},
		{"lea rax,(rbx,rcx,4)", func(a *Asm) { a.Lea(RAX, MIdx(RBX, RCX, 4, 0)) },
			[]byte{0x48, 0x8D, 0x04, 0x8B}},
		{"xor eax,eax", func(a *Asm) { a.XorRegReg32(RAX, RAX) }, []byte{0x31, 0xC0}},
		{"adc rcx,rax", func(a *Asm) { a.AdcRegReg64(RCX, RAX) }, []byte{0x48, 0x11, 0xC1}},
		{"sbb rcx,rax", func(a *Asm) { a.SbbRegReg64(RCX, RAX) }, []byte{0x48, 0x19, 0xC1}},
		{"adc rax,1", func(a *Asm) { a.AdcRegImm64(RAX, 1) }, []byte{0x48, 0x83, 0xD0, 0x01}},
		{"sbb rax,1", func(a *Asm) { a.SbbRegImm64(RAX, 1) }, []byte{0x48, 0x83, 0xD8, 0x01}},
		{"sete al", func(a *Asm) { a.Setcc(CondE, RAX) }, []byte{0x0F, 0x94, 0xC0}},
		{"setb sil", func(a *Asm) { a.Setcc(CondB, RSI) }, []byte{0x40, 0x0F, 0x92, 0xC6}},
		{"setg r9b", func(a *Asm) { a.Setcc(CondG, R9) }, []byte{0x41, 0x0F, 0x9F, 0xC1}},
		{"cmc", func(a *Asm) { a.Cmc() }, []byte{0xF5}},
		{"clc", func(a *Asm) { a.Clc() }, []byte{0xF8}},
		{"stc", func(a *Asm) { a.Stc() }, []byte{0xF9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAsm(0x400000)
			tc.emit(a)
			got, err := a.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Errorf("got % x, want % x", got, tc.want)
			}
		})
	}
}

func TestAsmBranches(t *testing.T) {
	a := NewAsm(0x400000)
	top := a.NewLabel()
	out := a.NewLabel()
	a.Bind(top)
	a.AddRegImm64(RAX, 1)  // 4 bytes
	a.CmpRegImm64(RAX, 10) // 4 bytes
	a.JccShort(CondL, top) // 2 bytes, rel8 = -10
	a.Jcc(CondE, out)      // 6 bytes forward
	a.Jmp(top)             // 5 bytes backward
	a.Bind(out)
	a.Ret()
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Verify each branch by decoding.
	insts := decodeAllTest(t, code, 0x400000)
	var targets []uint64
	for _, in := range insts {
		if in.RelSize != 0 {
			targets = append(targets, in.Target())
		}
	}
	want := []uint64{0x400000, 0x400000 + 21, 0x400000}
	if len(targets) != len(want) {
		t.Fatalf("got %d branches, want %d", len(targets), len(want))
	}
	for i := range want {
		if targets[i] != want[i] {
			t.Errorf("branch %d target %#x, want %#x", i, targets[i], want[i])
		}
	}
}

func TestAsmUnboundLabel(t *testing.T) {
	a := NewAsm(0)
	l := a.NewLabel()
	a.Jmp(l)
	if _, err := a.Finish(); err == nil {
		t.Fatal("expected error for unbound label")
	}
}

func TestAsmRel8Overflow(t *testing.T) {
	a := NewAsm(0)
	l := a.NewLabel()
	a.JmpShort(l)
	for i := 0; i < 200; i++ {
		a.Nop()
	}
	a.Bind(l)
	if _, err := a.Finish(); err == nil {
		t.Fatal("expected rel8 range error")
	}
}

func decodeAllTest(t *testing.T, code []byte, addr uint64) []Inst {
	t.Helper()
	var out []Inst
	for off := 0; off < len(code); {
		in, err := Decode(code[off:], addr+uint64(off))
		if err != nil {
			t.Fatalf("decode at +%#x (% x...): %v", off, code[off:min(off+8, len(code))], err)
		}
		out = append(out, in)
		off += in.Len
	}
	return out
}

// TestAsmDecodeRoundTrip property-tests that everything the assembler
// can emit is decoded back with the same length and operand shape.
func TestAsmDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	regs := []Reg{RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI, R8, R9, R10, R11, R12, R13, R14, R15}
	anyReg := func() Reg { return regs[rng.Intn(len(regs))] }
	anyMem := func() Mem {
		m := M(anyReg(), int32(rng.Intn(512)-256))
		if rng.Intn(3) == 0 {
			idx := anyReg()
			for idx == RSP {
				idx = anyReg()
			}
			m.Index = idx
			m.Scale = []uint8{1, 2, 4, 8}[rng.Intn(4)]
		}
		return m
	}
	emitters := []func(a *Asm){
		func(a *Asm) { a.MovRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.MovRegImm64(anyReg(), rng.Uint64()) },
		func(a *Asm) { a.MovRegImm32(anyReg(), rng.Uint32()) },
		func(a *Asm) { a.MovMemReg64(anyMem(), anyReg()) },
		func(a *Asm) { a.MovMemReg32(anyMem(), anyReg()) },
		func(a *Asm) { a.MovMemReg8(anyMem(), anyReg()) },
		func(a *Asm) { a.MovRegMem64(anyReg(), anyMem()) },
		func(a *Asm) { a.MovRegMem32(anyReg(), anyMem()) },
		func(a *Asm) { a.MovZXRegMem8(anyReg(), anyMem()) },
		func(a *Asm) { a.MovMemImm32(anyMem(), rng.Uint32()) },
		func(a *Asm) { a.MovMemImm8(anyMem(), uint8(rng.Intn(256))) },
		func(a *Asm) { a.Lea(anyReg(), anyMem()) },
		func(a *Asm) { a.AddRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.SubRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.AndRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.OrRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.XorRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.CmpRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.TestRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.AddRegImm64(anyReg(), int32(rng.Intn(1<<16)-1<<15)) },
		func(a *Asm) { a.SubRegImm64(anyReg(), int32(rng.Intn(1<<16)-1<<15)) },
		func(a *Asm) { a.CmpRegImm64(anyReg(), int32(rng.Intn(1<<16)-1<<15)) },
		func(a *Asm) { a.AndRegImm64(anyReg(), int32(rng.Intn(1<<16)-1<<15)) },
		func(a *Asm) { a.AdcRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.SbbRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.AdcRegImm64(anyReg(), int32(rng.Intn(1<<16)-1<<15)) },
		func(a *Asm) { a.SbbRegImm64(anyReg(), int32(rng.Intn(1<<16)-1<<15)) },
		func(a *Asm) { a.Setcc(Cond(rng.Intn(16)), anyReg()) },
		func(a *Asm) { a.Cmc() },
		func(a *Asm) { a.Clc() },
		func(a *Asm) { a.Stc() },
		func(a *Asm) { a.AddMemReg64(anyMem(), anyReg()) },
		func(a *Asm) { a.AddRegMem64(anyReg(), anyMem()) },
		func(a *Asm) { a.CmpMemImm8(anyMem(), int8(rng.Intn(256)-128)) },
		func(a *Asm) { a.TestMemImm8(anyMem(), uint8(rng.Intn(256))) },
		func(a *Asm) { a.IncMem32(anyMem()) },
		func(a *Asm) { a.ImulRegReg64(anyReg(), anyReg()) },
		func(a *Asm) { a.ImulRegRegImm32(anyReg(), anyReg(), int32(rng.Int31())) },
		func(a *Asm) { a.ShlRegImm64(anyReg(), uint8(rng.Intn(64))) },
		func(a *Asm) { a.ShrRegImm64(anyReg(), uint8(rng.Intn(64))) },
		func(a *Asm) { a.NegReg64(anyReg()) },
		func(a *Asm) { a.NotReg64(anyReg()) },
		func(a *Asm) { a.PushReg(anyReg()) },
		func(a *Asm) { a.PopReg(anyReg()) },
		func(a *Asm) { a.PushImm32(rng.Int31()) },
		func(a *Asm) { a.Pushfq() },
		func(a *Asm) { a.Popfq() },
		func(a *Asm) { a.CallReg(anyReg()) },
		func(a *Asm) { a.Nop() },
		func(a *Asm) { a.Int3() },
		func(a *Asm) { a.Ud2() },
		func(a *Asm) { a.MovMemImm32Sx64(anyMem(), rng.Int31()) },
	}
	for trial := 0; trial < 2000; trial++ {
		a := NewAsm(0x400000)
		emitters[rng.Intn(len(emitters))](a)
		code, err := a.Finish()
		if err != nil {
			t.Fatalf("trial %d: assemble: %v", trial, err)
		}
		inst, err := Decode(code, 0x400000)
		if err != nil {
			t.Fatalf("trial %d: decode % x: %v", trial, code, err)
		}
		if inst.Len != len(code) {
			t.Fatalf("trial %d: decode len %d != emitted %d (% x)", trial, inst.Len, len(code), code)
		}
	}
}

// TestAsmDecodeSequences packs many random instructions back to back
// and checks that linear decoding recovers the exact boundaries.
func TestAsmDecodeSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a := NewAsm(0x400000)
		var wantLens []int
		prev := 0
		for i := 0; i < 100; i++ {
			switch rng.Intn(6) {
			case 0:
				a.MovMemReg64(M(RBX, int32(rng.Intn(64))), RAX)
			case 1:
				a.AddRegImm64(RCX, int32(rng.Intn(100)))
			case 2:
				a.PushReg(RDI)
			case 3:
				a.MovRegImm32(RDX, rng.Uint32())
			case 4:
				a.Lea(RSI, MIdx(RAX, RCX, 8, 16))
			case 5:
				a.TestRegReg64(RAX, RAX)
			}
			wantLens = append(wantLens, a.Len()-prev)
			prev = a.Len()
		}
		code := a.MustFinish()
		insts := decodeAllTest(t, code, 0x400000)
		if len(insts) != len(wantLens) {
			t.Fatalf("trial %d: decoded %d instructions, want %d", trial, len(insts), len(wantLens))
		}
		for i, in := range insts {
			if in.Len != wantLens[i] {
				t.Fatalf("trial %d: inst %d len %d, want %d", trial, i, in.Len, wantLens[i])
			}
		}
	}
}
