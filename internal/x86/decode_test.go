package x86

import (
	"bytes"
	"errors"
	"testing"
)

// decodeOne decodes and fails the test on error.
func decodeOne(t *testing.T, code []byte) Inst {
	t.Helper()
	inst, err := Decode(code, 0x400000)
	if err != nil {
		t.Fatalf("Decode(% x): %v", code, err)
	}
	return inst
}

func TestDecodeLengths(t *testing.T) {
	cases := []struct {
		name string
		code []byte
		len  int
	}{
		{"mov rax,(rbx)", []byte{0x48, 0x89, 0x03}, 3},
		{"add $32,rax", []byte{0x48, 0x83, 0xC0, 0x20}, 4},
		{"xor rcx,rax", []byte{0x48, 0x31, 0xC1}, 3},
		{"cmpl $77,-4(rbx)", []byte{0x83, 0x7B, 0xFC, 0x4D}, 4},
		{"testb $2,0x18(rbx)", []byte{0xF6, 0x43, 0x18, 0x02}, 4},
		{"ret", []byte{0xC3}, 1},
		{"push rax", []byte{0x50}, 1},
		{"push r12", []byte{0x41, 0x54}, 2},
		{"pop rbp", []byte{0x5D}, 1},
		{"nop", []byte{0x90}, 1},
		{"int3", []byte{0xCC}, 1},
		{"jmp rel32", []byte{0xE9, 0x00, 0x01, 0x02, 0x03}, 5},
		{"jmp rel8", []byte{0xEB, 0x10}, 2},
		{"je rel8", []byte{0x74, 0x27}, 2},
		{"jne rel32", []byte{0x0F, 0x85, 0x01, 0x02, 0x03, 0x04}, 6},
		{"call rel32", []byte{0xE8, 0xAA, 0xBB, 0xCC, 0x00}, 5},
		{"lea rax,8(rsp)", []byte{0x48, 0x8D, 0x44, 0x24, 0x08}, 5},
		{"mov ebx,ebp", []byte{0x89, 0xDD}, 2},
		{"movb $1,0x398(rax)", []byte{0xC6, 0x80, 0x98, 0x03, 0x00, 0x00, 0x01}, 7},
		{"callq *0x2a2a6f(rip)", []byte{0xFF, 0x15, 0x6F, 0x2A, 0x2A, 0x00}, 6},
		{"mov 0xa0(r14),rsi", []byte{0x49, 0x8B, 0xB6, 0xA0, 0x00, 0x00, 0x00}, 7},
		{"movabs rax,imm64", []byte{0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8}, 10},
		{"mov eax,imm32", []byte{0xB8, 1, 2, 3, 4}, 5},
		{"mov ax,imm16 (66)", []byte{0x66, 0xB8, 1, 2}, 4},
		{"test rax,rax", []byte{0x48, 0x85, 0xC0}, 3},
		{"test rax,imm32", []byte{0x48, 0xF7, 0xC0, 1, 2, 3, 4}, 7},
		{"neg rax", []byte{0x48, 0xF7, 0xD8}, 3},
		{"imul rbx,rcx", []byte{0x48, 0x0F, 0xAF, 0xD9}, 4},
		{"movzx eax,byte(rdi)", []byte{0x0F, 0xB6, 0x07}, 3},
		{"endbr64", []byte{0xF3, 0x0F, 0x1E, 0xFA}, 4},
		{"rep movsb", []byte{0xF3, 0xA4}, 2},
		{"mov fs:0x28 load", []byte{0x64, 0x48, 0x8B, 0x04, 0x25, 0x28, 0, 0, 0}, 9},
		{"pushfq", []byte{0x9C}, 1},
		{"leave", []byte{0xC9}, 1},
		{"shl rax,4", []byte{0x48, 0xC1, 0xE0, 0x04}, 4},
		{"jmp *rax", []byte{0xFF, 0xE0}, 2},
		{"jmp *(rax,rbx,8)", []byte{0xFF, 0x24, 0xD8}, 3},
		{"push imm8", []byte{0x6A, 0x05}, 2},
		{"push imm32", []byte{0x68, 1, 2, 3, 4}, 5},
		{"enter", []byte{0xC8, 0x10, 0x00, 0x01}, 4},
		{"lock add (rbx),eax", []byte{0xF0, 0x01, 0x03}, 3},
		{"cmpxchg (rdi),rsi", []byte{0x48, 0x0F, 0xB1, 0x37}, 4},
		{"movaps store", []byte{0x0F, 0x29, 0x07}, 3},
		{"absolute store", []byte{0x89, 0x04, 0x25, 0x10, 0x20, 0x30, 0x00}, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Pad with trailing bytes so truncation cannot mask a
			// length over-estimate.
			padded := append(append([]byte{}, tc.code...), 0x90, 0x90, 0x90, 0x90)
			inst := decodeOne(t, padded)
			if inst.Len != tc.len {
				t.Errorf("len = %d, want %d", inst.Len, tc.len)
			}
		})
	}
}

func TestDecodeBranchInfo(t *testing.T) {
	// jmpq with rel32 = 0x8348XXXX example from the paper.
	code := []byte{0xE9, 0x11, 0x22, 0x48, 0x83}
	inst := decodeOne(t, code)
	if !inst.IsJmp() {
		t.Fatal("jmp not classified as jump")
	}
	relBits := uint32(0x83482211)
	wantRel := int64(int32(relBits))
	if inst.Rel() != wantRel {
		t.Errorf("Rel() = %#x, want %#x", inst.Rel(), wantRel)
	}
	if got := inst.Target(); got != 0x400000+5+uint64(wantRel) {
		t.Errorf("Target() = %#x", got)
	}

	short := decodeOne(t, []byte{0xEB, 0x70})
	if short.Target() != 0x400000+2+0x70 {
		t.Errorf("short jmp target = %#x", short.Target())
	}
	neg := decodeOne(t, []byte{0x74, 0xF0})
	if neg.Target() != 0x400000+2-16 {
		t.Errorf("negative jcc target = %#x", neg.Target())
	}
	if !neg.IsJcc() {
		t.Error("jcc not classified")
	}
}

func TestDecodeMemOperands(t *testing.T) {
	cases := []struct {
		name  string
		code  []byte
		base  Reg
		index Reg
		write bool
	}{
		{"mov (rbx),rax store", []byte{0x48, 0x89, 0x03}, RBX, NoReg, true},
		{"mov rax,(rbx) load", []byte{0x48, 0x8B, 0x03}, RBX, NoReg, false},
		{"mov (rsp),rax store", []byte{0x48, 0x89, 0x04, 0x24}, RSP, NoReg, true},
		{"mov (r13),eax store", []byte{0x41, 0x89, 0x45, 0x00}, R13, NoReg, true},
		{"store sib", []byte{0x89, 0x04, 0x9F}, RDI, RBX, true},
		{"store rip-rel", []byte{0x89, 0x05, 1, 2, 3, 4}, RIP, NoReg, true},
		{"cmp no write", []byte{0x39, 0x03}, RBX, NoReg, false},
		{"test no write", []byte{0x85, 0x03}, RBX, NoReg, false},
		{"add (rbx),eax rmw", []byte{0x01, 0x03}, RBX, NoReg, true},
		{"inc dword (rdi)", []byte{0xFF, 0x07}, RDI, NoReg, true},
		{"push (rdi) no write", []byte{0xFF, 0x37}, RDI, NoReg, false},
		{"notq (rdi) write", []byte{0x48, 0xF7, 0x17}, RDI, NoReg, true},
		{"mul (rdi) read", []byte{0x48, 0xF7, 0x27}, RDI, NoReg, false},
		{"setcc (rsi)", []byte{0x0F, 0x94, 0x06}, RSI, NoReg, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := decodeOne(t, tc.code)
			if inst.MemBase != tc.base {
				t.Errorf("MemBase = %v, want %v", inst.MemBase, tc.base)
			}
			if inst.MemIndex != tc.index {
				t.Errorf("MemIndex = %v, want %v", inst.MemIndex, tc.index)
			}
			if inst.WritesMem() != tc.write {
				t.Errorf("WritesMem = %v, want %v", inst.WritesMem(), tc.write)
			}
		})
	}
}

func TestIsHeapWrite(t *testing.T) {
	cases := []struct {
		name string
		code []byte
		want bool
	}{
		{"store via rbx", []byte{0x48, 0x89, 0x03}, true},
		{"store via rsp", []byte{0x48, 0x89, 0x04, 0x24}, false},
		{"store rip-rel", []byte{0x89, 0x05, 1, 2, 3, 4}, false},
		{"store via rbp", []byte{0x48, 0x89, 0x45, 0x08}, true},
		{"load via rbx", []byte{0x48, 0x8B, 0x03}, false},
		{"reg-to-reg mov", []byte{0x48, 0x89, 0xD8}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := decodeOne(t, tc.code)
			if inst.IsHeapWrite() != tc.want {
				t.Errorf("IsHeapWrite = %v, want %v", inst.IsHeapWrite(), tc.want)
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0x48}, 0); err == nil {
		t.Error("lone REX prefix should be truncated")
	}
	if _, err := Decode([]byte{0xE9, 0x01, 0x02}, 0); err == nil {
		t.Error("truncated rel32 should fail")
	}
	if _, err := Decode([]byte{0x06}, 0); err == nil {
		t.Error("invalid 64-bit opcode should fail")
	}
	if _, err := Decode([]byte{0xC4, 0x00, 0x00}, 0); err == nil {
		t.Error("VEX should be rejected")
	}
	if _, err := Decode(bytes.Repeat([]byte{0x66}, 20), 0); err == nil {
		t.Error("over-long prefix run should fail")
	}
	if _, err := Decode([]byte{0x48, 0x89}, 0); err == nil {
		t.Error("missing modrm should fail")
	}
}

// TestDecodeFailuresAllocFree pins the cost of a failed decode through
// both entry points, Decode and Shape: every failure class classifies
// under its sentinel, prints the detail it always printed, and
// allocates nothing (a superset sweep fails at about a third of all
// offsets).
func TestDecodeFailuresAllocFree(t *testing.T) {
	tooLong := append(bytes.Repeat([]byte{0x66}, 9), 0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8)
	for _, tc := range []struct {
		name string
		code []byte
		want error
		msg  string
	}{
		{"invalid opcode", []byte{0x06, 0x90}, ErrInvalid, "x86: invalid opcode: 0x06 (two-byte=false)"},
		{"invalid two-byte opcode", []byte{0x0F, 0x04, 0x90}, ErrInvalid, "x86: invalid opcode: 0x04 (two-byte=true)"},
		{"prefix run", bytes.Repeat([]byte{0x66}, 20), ErrInvalid, "x86: invalid opcode: prefix run too long"},
		{"length", tooLong, ErrInvalid, "x86: invalid opcode: length 19 exceeds 15"},
		{"truncated tail", []byte{0x48, 0x89}, ErrTruncated, "x86: truncated instruction"},
		{"truncated rel32", []byte{0xE9, 0x01, 0x02}, ErrTruncated, "x86: truncated instruction"},
	} {
		_, err := Decode(tc.code, 0x401000)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
			continue
		}
		if err.Error() != tc.msg {
			t.Errorf("%s: message %q, want %q", tc.name, err, tc.msg)
		}
		code := tc.code
		if n := testing.AllocsPerRun(100, func() { _, _ = Decode(code, 0x401000) }); n != 0 {
			t.Errorf("%s: %v allocations per failed Decode, want 0", tc.name, n)
		}
		if _, _, shapeErr := Shape(tc.code); shapeErr != err {
			t.Errorf("%s: Shape fails with %v, Decode with %v", tc.name, shapeErr, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _, _ = Shape(code) }); n != 0 {
			t.Errorf("%s: %v allocations per failed Shape, want 0", tc.name, n)
		}
	}
}

func TestAppendRelocated(t *testing.T) {
	// mov 0x100(%rip),%eax at 0x400000 -> absolute target 0x400106.
	code := []byte{0x8B, 0x05, 0x00, 0x01, 0x00, 0x00}
	inst := decodeOne(t, code)
	out, err := AppendRelocated(nil, &inst, 0x500000)
	if err != nil {
		t.Fatal(err)
	}
	reloc, err := Decode(out, 0x500000)
	if err != nil {
		t.Fatal(err)
	}
	origTarget := inst.Addr + uint64(inst.Len) + uint64(inst.Disp())
	newTarget := reloc.Addr + uint64(reloc.Len) + uint64(reloc.Disp())
	if origTarget != newTarget {
		t.Errorf("rip target moved: %#x -> %#x", origTarget, newTarget)
	}

	// Non-rip instructions are copied verbatim.
	plain := decodeOne(t, []byte{0x48, 0x89, 0x03})
	out2, err := AppendRelocated(nil, &plain, 0x99999999)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2, plain.Bytes) {
		t.Error("non-rip instruction was modified")
	}

	// Out-of-range relocation must fail.
	if _, err := AppendRelocated(nil, &inst, 0x40000000000); err == nil {
		t.Error("expected range error")
	}
}
