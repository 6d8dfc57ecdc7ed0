package x86

import (
	"bytes"
	"errors"
	"testing"
)

// decodeAt decodes one instruction at the given address or fails.
func decodeAt(t *testing.T, code []byte, addr uint64) Inst {
	t.Helper()
	i, err := Decode(code, addr)
	if err != nil {
		t.Fatalf("decode % x: %v", code, err)
	}
	if i.Len != len(code) {
		t.Fatalf("decode % x: len %d, want %d", code, i.Len, len(code))
	}
	return i
}

func TestRelocateSimpleNonRIP(t *testing.T) {
	// mov [rbx], rax — no RIP-relative operand: byte copy at any delta.
	i := decodeAt(t, []byte{0x48, 0x89, 0x03}, 0x1000)
	out, err := RelocateSimple(&i, 0x9_0000_0000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, i.Bytes) {
		t.Fatalf("non-RIP relocation changed bytes: % x", out)
	}
}

func TestRelocateSimpleRIPRelative(t *testing.T) {
	// mov rax, [rip+0x100] at 0x40_0000: target 0x40_0107.
	src := []byte{0x48, 0x8B, 0x05, 0x00, 0x01, 0x00, 0x00}
	const oldAddr = 0x40_0000
	i := decodeAt(t, src, oldAddr)
	target := i.Addr + uint64(i.Len) + uint64(i.Disp())

	for _, tc := range []struct {
		name    string
		newAddr uint64
	}{
		{"negative delta (moved down)", oldAddr - 0x3_0000},
		{"positive delta (moved up)", oldAddr + 0x7FF_0000},
	} {
		out, err := RelocateSimple(&i, tc.newAddr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ri := decodeAt(t, out, tc.newAddr)
		if !ri.RIPRel {
			t.Fatalf("%s: relocation lost RIP-relative addressing", tc.name)
		}
		got := ri.Addr + uint64(ri.Len) + uint64(ri.Disp())
		if got != target {
			t.Fatalf("%s: target %#x, want %#x", tc.name, got, target)
		}
		// Only the displacement may change.
		if !bytes.Equal(out[:i.DispOff], src[:i.DispOff]) {
			t.Fatalf("%s: prefix/opcode bytes changed: % x", tc.name, out)
		}
	}
}

func TestRelocateSimpleOutOfRange(t *testing.T) {
	src := []byte{0x48, 0x8B, 0x05, 0x00, 0x01, 0x00, 0x00}
	i := decodeAt(t, src, 0x40_0000)
	// Moving up by 4GiB pushes the displacement far below INT32_MIN.
	if _, err := RelocateSimple(&i, 0x1_0040_0000); !errors.Is(err, ErrRelocRange) {
		t.Fatalf("want ErrRelocRange, got %v", err)
	}
}

func TestRelocateBranchWidening(t *testing.T) {
	const oldAddr = 0x1000
	for _, tc := range []struct {
		name   string
		code   []byte
		opcode byte // expected widened opcode (second byte for jcc)
	}{
		{"jmp rel8 -> jmp rel32", []byte{0xEB, 0x10}, 0xE9},
		{"je rel8 -> je rel32", []byte{0x74, 0x27}, 0x84},
		{"jne rel8 -> jne rel32", []byte{0x75, 0xF0}, 0x85},
		{"jmp rel32 stays rel32", []byte{0xE9, 0x00, 0x10, 0x00, 0x00}, 0xE9},
		{"jl rel32 stays rel32", []byte{0x0F, 0x8C, 0x00, 0x10, 0x00, 0x00}, 0x8C},
		{"call rel32", []byte{0xE8, 0x44, 0x33, 0x22, 0x00}, 0xE8},
	} {
		i := decodeAt(t, tc.code, oldAddr)
		target := i.Target()
		for _, newAddr := range []uint64{oldAddr + 0x40_0000, oldAddr + 0x10 /* overlapping */, 0x10 /* below */} {
			out, err := RelocateBranch(&i, newAddr)
			if err != nil {
				t.Fatalf("%s @%#x: %v", tc.name, newAddr, err)
			}
			ri := decodeAt(t, out, newAddr)
			if ri.RelSize != 4 {
				t.Fatalf("%s @%#x: RelSize %d, want 4", tc.name, newAddr, ri.RelSize)
			}
			if ri.Opcode != tc.opcode {
				t.Fatalf("%s @%#x: opcode %#02x, want %#02x", tc.name, newAddr, ri.Opcode, tc.opcode)
			}
			if ri.Target() != target {
				t.Fatalf("%s @%#x: target %#x, want %#x", tc.name, newAddr, ri.Target(), target)
			}
		}
	}
}

func TestRelocateBranchOutOfRange(t *testing.T) {
	i := decodeAt(t, []byte{0xEB, 0x10}, 0x1000)
	if _, err := RelocateBranch(&i, 0x2_0000_0000); !errors.Is(err, ErrRelocRange) {
		t.Fatalf("want ErrRelocRange, got %v", err)
	}
}

// TestRel32EmittersRejectOutOfRange: jmp, jcc and call rel32 to an
// absolute target reach it exactly up to the edge of the ±2 GiB window
// and record ErrRelocRange one byte past it, instead of emitting a
// displacement that wraps to an address 4 GiB away.
func TestRel32EmittersRejectOutOfRange(t *testing.T) {
	const at = 0x1_0000_0000
	emitters := []struct {
		name string
		n    uint64 // encoded length
		emit func(a *Asm, target uint64)
	}{
		{"jmp", 5, func(a *Asm, target uint64) { a.JmpRel32(target) }},
		{"jcc", 6, func(a *Asm, target uint64) { a.JccRel32(CondNE, target) }},
		{"call", 5, func(a *Asm, target uint64) { a.CallRel32(target) }},
	}
	for _, e := range emitters {
		end := at + e.n
		for _, tc := range []struct {
			target uint64
			ok     bool
		}{
			{end + 1<<31 - 1, true},
			{end - 1<<31, true},
			{end + 1<<31, false},
			{end - 1<<31 - 1, false},
		} {
			a := NewAsm(at)
			e.emit(a, tc.target)
			code, err := a.Finish()
			if !tc.ok {
				if !errors.Is(err, ErrRelocRange) {
					t.Errorf("%s to %#x: want ErrRelocRange, got %v", e.name, tc.target, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s to %#x: %v", e.name, tc.target, err)
			}
			if i := decodeAt(t, code, at); i.Target() != tc.target {
				t.Errorf("%s to %#x reaches %#x", e.name, tc.target, i.Target())
			}
		}
	}
}

func TestRelocateBranchRejectsLoopAndIndirect(t *testing.T) {
	// loop rel8 cannot be widened: no rel32 form exists.
	loop := decodeAt(t, []byte{0xE2, 0xFB}, 0x1000)
	if _, err := RelocateBranch(&loop, 0x2000); err == nil {
		t.Fatal("loop rel8: expected error, got success")
	}
	// jmp [rax] (FF /4) is not a direct branch.
	ind := decodeAt(t, []byte{0xFF, 0x20}, 0x1000)
	if _, err := RelocateBranch(&ind, 0x2000); err == nil {
		t.Fatal("indirect jmp: expected error, got success")
	}
}
