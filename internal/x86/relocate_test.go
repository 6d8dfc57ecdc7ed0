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

func TestAppendRelocatedNonRIP(t *testing.T) {
	// mov [rbx], rax — no RIP-relative operand: byte copy at any delta.
	i := decodeAt(t, []byte{0x48, 0x89, 0x03}, 0x1000)
	out, err := AppendRelocated(nil, &i, 0x9_0000_0000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, i.Bytes) {
		t.Fatalf("non-RIP relocation changed bytes: % x", out)
	}
}

func TestAppendRelocatedRIPRelative(t *testing.T) {
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
		out, err := AppendRelocated(nil, &i, tc.newAddr)
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

func TestAppendRelocatedOutOfRange(t *testing.T) {
	src := []byte{0x48, 0x8B, 0x05, 0x00, 0x01, 0x00, 0x00}
	i := decodeAt(t, src, 0x40_0000)
	// Moving up by 4GiB pushes the displacement far below INT32_MIN.
	if _, err := AppendRelocated(nil, &i, 0x1_0040_0000); !errors.Is(err, ErrRelocRange) {
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
