package disasm

import (
	"testing"

	"e9patch/internal/x86"
)

func TestLinear(t *testing.T) {
	a := x86.NewAsm(0x400000)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX) // heap write
	a.AddRegImm64(x86.RAX, 32)
	l := a.NewLabel()
	a.Bind(l)
	a.JccShort(x86.CondE, l)                  // jcc
	a.Jmp(l)                                  // jmp
	a.MovMemReg64(x86.M(x86.RSP, 8), x86.RAX) // stack write: not A2
	a.Ret()
	code := a.MustFinish()

	res := linear(code, 0x400000)
	if res.BadBytes != 0 {
		t.Fatalf("bad bytes: %d", res.BadBytes)
	}
	if len(res.Insts) != 6 {
		t.Fatalf("got %d instructions", len(res.Insts))
	}
	if !res.Insts[2].IsJcc() || !res.Insts[3].IsJmp() || !res.Insts[0].MayWriteMem() {
		t.Errorf("instruction classes lost: %+v", res.Insts)
	}
}

func TestLinearSkipsData(t *testing.T) {
	// Interleave valid code with invalid bytes (0x06 is invalid in
	// 64-bit mode).
	code := []byte{0x90, 0x06, 0x06, 0x90, 0xC3}
	res := linear(code, 0x1000)
	if res.BadBytes != 2 {
		t.Errorf("bad bytes = %d, want 2", res.BadBytes)
	}
	if len(res.Insts) != 3 {
		t.Errorf("insts = %d, want 3", len(res.Insts))
	}
}

func TestLinearAddresses(t *testing.T) {
	a := x86.NewAsm(0x400000)
	a.PushReg(x86.RBP)
	a.MovRegReg64(x86.RBP, x86.RSP)
	a.PopReg(x86.RBP)
	a.Ret()
	res := linear(a.MustFinish(), 0x400000)
	want := []uint64{0x400000, 0x400001, 0x400004, 0x400005}
	for i, in := range res.Insts {
		if in.Addr != want[i] {
			t.Errorf("inst %d addr %#x, want %#x", i, in.Addr, want[i])
		}
	}
}
