package x86

import (
	"bytes"
	"testing"
)

// againstRef holds the three product entry points to the reference
// decoder on one input: the error value, and on success Len, Attrs and
// every operand field. It returns a description of the first
// disagreement, "" when there is none.
func againstRef(code []byte) string {
	const addr = 0x401000
	var want, got Inst
	wantErr := refDecodeInto(&want, code, addr)

	n, attrs, err := Shape(code)
	if err != wantErr {
		return "Shape error " + errString(err) + ", want " + errString(wantErr)
	}
	if gotErr := DecodeInto(&got, code, addr); gotErr != wantErr {
		return "DecodeInto error " + errString(gotErr) + ", want " + errString(wantErr)
	}
	if wantErr != nil {
		if n != 0 || attrs != 0 {
			return "Shape reports a length or attributes beside its error"
		}
		return ""
	}
	switch {
	case n != want.Len || attrs != want.Attrs:
		return "Shape length or attributes"
	case AttrsOf(code[:n]) != want.Attrs:
		return "AttrsOf"
	case got.Addr != want.Addr || got.Len != want.Len || got.Attrs != want.Attrs:
		return "DecodeInto Addr, Len or Attrs"
	case len(got.Bytes) != len(want.Bytes) || &got.Bytes[0] != &want.Bytes[0]:
		return "DecodeInto Bytes"
	case got.Opcode != want.Opcode || got.TwoByte != want.TwoByte || got.ModRM != want.ModRM:
		return "DecodeInto Opcode, TwoByte or ModRM"
	case got.Rex != want.Rex || got.NPrefix != want.NPrefix:
		return "DecodeInto Rex or NPrefix"
	case got.RelOff != want.RelOff || got.RelSize != want.RelSize:
		return "DecodeInto RelOff or RelSize"
	case got.ImmOff != want.ImmOff || got.ImmSize != want.ImmSize:
		return "DecodeInto ImmOff or ImmSize"
	case got.DispOff != want.DispOff || got.DispSize != want.DispSize || got.RIPRel != want.RIPRel:
		return "DecodeInto DispOff, DispSize or RIPRel"
	case got.MemBase != want.MemBase || got.MemIndex != want.MemIndex || got.MemScale != want.MemScale:
		return "DecodeInto MemBase, MemIndex or MemScale"
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// kernelPrefixes are the prefix runs of the exhaustive differential.
// The 14-byte run leaves room for a one-byte opcode only, so everything
// longer ends in the length error; the 15-byte run is the prefix-run
// error itself.
var kernelPrefixes = [][]byte{
	{},
	{0x66},
	{0x48},
	{0x66, 0x48},
	{0x48, 0x66}, // a REX that is not the final prefix is no REX
	{0x47},       // REX.RXB: extended base and index registers
	{0xF2},
	{0xF3},
	{0x64},
	{0x2E, 0x67},
	bytes.Repeat([]byte{0x66}, 14),
	bytes.Repeat([]byte{0x2E}, 15),
}

// kernelSIBs cover base 100b (rsp), base 101b (disp32 when mod == 0,
// with and without an index) and an ordinary base with a scaled index.
var kernelSIBs = []byte{0x24, 0x25, 0x65, 0xD8}

// TestKernelMatchesReference is the exhaustive differential of the
// table-driven walk against the decoder it replaced: every prefix run
// above x both opcode maps x every ModRM byte x the SIB bytes above,
// on the full encoding and at every truncation cut from 1 to 16 bytes.
func TestKernelMatchesReference(t *testing.T) {
	filler := []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x10,
		0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xA9, 0xBA, 0xCB, 0xDC, 0xED, 0xFE, 0x0F, 0x20}
	code := make([]byte, 0, 64)
	check := func(opcode []byte, tail ...byte) {
		for _, pfx := range kernelPrefixes {
			code = append(append(append(append(code[:0], pfx...), opcode...), tail...), filler...)
			for cut := 1; cut <= 16; cut++ {
				if msg := againstRef(code[:cut]); msg != "" {
					t.Fatalf("% x: %s", code[:cut], msg)
				}
			}
			if msg := againstRef(code); msg != "" {
				t.Fatalf("% x: %s", code, msg)
			}
		}
	}
	for m, opmap := range []*[256]Attr{&oneByte, &twoByte} {
		for op := 0; op < 256; op++ {
			opcode := []byte{byte(op)}
			if m == 1 {
				opcode = []byte{0x0F, byte(op)}
			}
			if prefixTab[op] != 0 && m == 0 {
				continue // a longer prefix run, not an opcode
			}
			if opmap[op]&(AttrModRM|AttrInvalid) != AttrModRM {
				check(opcode)
				continue
			}
			for modrm := 0; modrm < 256; modrm++ {
				if modrm&7 != 4 || modrm >= 0xC0 {
					check(opcode, byte(modrm))
					continue
				}
				for _, sib := range kernelSIBs {
					check(opcode, byte(modrm), sib)
				}
			}
		}
	}
}

// TestShapeTables pins what the walk assumes of the opcode maps: a
// branch displacement has one size.
func TestShapeTables(t *testing.T) {
	for _, opmap := range []*[256]Attr{&oneByte, &twoByte} {
		for op, a := range opmap {
			if a&AttrRel8 != 0 && a&AttrRel32 != 0 {
				t.Errorf("opcode %#02x has both a rel8 and a rel32", op)
			}
		}
	}
}

// shapeSeeds are FuzzShape's corpus: the failure classes of
// TestDecodeFailuresAllocFree, and one instruction for each tactic
// column of the paper's Table 1 (what B1, B2, T1, T2 and T3 are chosen
// by is the length of the instruction and of its successors) and for
// each of its two applications.
var shapeSeeds = [][]byte{
	{0x06, 0x90},
	{0x0F, 0x04, 0x90},
	bytes.Repeat([]byte{0x66}, 20),
	append(bytes.Repeat([]byte{0x66}, 9), 0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8),
	{0x48, 0x89},
	{0xE9, 0x01, 0x02},
	{0xE9, 0x11, 0x22, 0x48, 0x83},             // B1: five bytes, the jump fits
	{0x48, 0x89, 0x03},                         // B2: mov %rax,(%rbx), punned over its successors
	{0x48, 0x83, 0xC0, 0x20},                   // T1: add $32,%rax, padded with prefixes
	{0x48, 0x31, 0xC1},                         // T2: xor %rax,%rcx, successor evicted
	{0x83, 0x7B, 0xFC, 0x4D},                   // T3: cmpl $77,-4(%rbx), neighbour evicted
	{0x74, 0x27},                               // A1: jcc rel8
	{0xC6, 0x80, 0x98, 0x03, 0x00, 0x00, 0x01}, // A2: movb $1,0x398(%rax)
	{0xF3, 0x0F, 0x1E, 0xFA},                   // endbr64
	{0x89, 0x04, 0x25, 0x10, 0x20, 0x30, 0x00}, // SIB, no base: absolute store
}

// FuzzShape holds Shape, AttrsOf and DecodeInto to the reference
// decoder on arbitrary bytes.
func FuzzShape(f *testing.F) {
	for _, seed := range shapeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		if msg := againstRef(code); msg != "" {
			t.Fatalf("% x: %s", code, msg)
		}
	})
}
