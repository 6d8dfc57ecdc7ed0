package loader

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/group"
)

func buildGrouped(t *testing.T) *group.Result {
	t.Helper()
	res, err := group.Build([]group.Chunk{
		{Addr: 0x700100, Data: []byte{0xDE, 0xAD}},
		{Addr: 0x702800, Data: []byte{0xBE, 0xEF, 0x01}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	res := buildGrouped(t)
	sig := map[uint64]uint64{0x401000: 0x700100, 0x401005: 0x702800}
	blob := Encode(res, 1, sig, 0x401234)
	b, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if b.Entry != 0x401234 || b.Granularity != 1 {
		t.Errorf("header mismatch: %+v", b)
	}
	if len(b.Mappings) != len(res.Mappings) || len(b.Blocks) != len(res.Blocks) {
		t.Fatalf("structure mismatch")
	}
	for i, mp := range res.Mappings {
		if b.Mappings[i] != mp {
			t.Errorf("mapping %d = %+v, want %+v", i, b.Mappings[i], mp)
		}
	}
	for i := range res.Blocks {
		if !bytes.Equal(b.Blocks[i], res.Blocks[i]) {
			t.Errorf("block %d differs", i)
		}
	}
	if len(b.SigTab) != 2 || b.SigTab[0x401000] != 0x700100 {
		t.Errorf("sigtab = %v", b.SigTab)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("nil blob accepted")
	}
	if _, err := Decode([]byte{1, 2, 3, 4}); err == nil {
		t.Error("bad magic accepted")
	}
	res := buildGrouped(t)
	blob := Encode(res, 1, nil, 0)
	if _, err := Decode(blob[:len(blob)-5]); err == nil {
		t.Error("truncated blob accepted")
	}
}

func TestBuildImage(t *testing.T) {
	text := bytes.Repeat([]byte{0x90}, 64)
	text[0] = 0xC3
	bin, err := elf64.Build(elf64.BuildSpec{Text: text, Data: []byte("datadata"), BSSSize: 0x100})
	if err != nil {
		t.Fatal(err)
	}
	res := buildGrouped(t)
	sig := map[uint64]uint64{0x401001: 0x700100}
	out := elf64.Compose(bin, 0, nil, Encode(res, 1, sig, 0x401000))

	m := emu.NewMachine()
	entry, err := BuildImage(m, out)
	if err != nil {
		t.Fatal(err)
	}
	if entry != elf64.DefaultBase+elf64.TextVaddrOff {
		t.Errorf("entry = %#x", entry)
	}
	// Text present.
	b, ok := m.Mem.ReadBytes(entry, 1)
	if !ok || b[0] != 0xC3 {
		t.Error("text not loaded")
	}
	// Trampoline bytes present at their virtual addresses.
	b, _ = m.Mem.ReadBytes(0x700100, 2)
	if b[0] != 0xDE || b[1] != 0xAD {
		t.Errorf("trampoline bytes = % x", b)
	}
	b, _ = m.Mem.ReadBytes(0x702800, 3)
	if b[0] != 0xBE || b[2] != 0x01 {
		t.Errorf("second trampoline bytes = % x", b)
	}
	// SigTab installed with bias applied.
	if m.SigTab[0x401001] != 0x700100 {
		t.Errorf("sigtab = %v", m.SigTab)
	}
	// .bss mapped and zero.
	f, _ := elf64.Parse(out)
	bss, _ := f.SectionByName(".bss")
	b, ok = m.Mem.ReadBytes(bss.Addr, 4)
	if !ok || b[0] != 0 {
		t.Error(".bss not mapped as zeros")
	}
}

func TestBuildImageBias(t *testing.T) {
	text := []byte{0xC3}
	bin, err := elf64.Build(elf64.BuildSpec{PIE: true, Text: text, Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	res := buildGrouped(t)
	out := elf64.Compose(bin, 0, nil, Encode(res, 1, nil, elf64.TextVaddrOff))
	m := emu.NewMachine()
	const bias = PIEBase // ET_DYN loads at PIEBase
	entry, err := BuildImage(m, out)
	if err != nil {
		t.Fatal(err)
	}
	if entry != bias+elf64.TextVaddrOff {
		t.Errorf("entry = %#x", entry)
	}
	if b, _ := m.Mem.ReadBytes(bias+0x700100, 1); b[0] != 0xDE {
		t.Error("biased trampoline missing")
	}
}

func TestMapCountLimit(t *testing.T) {
	// One mapping over vm.max_map_count must be refused; five pass.
	image := func(n int) []byte {
		chunks := make([]group.Chunk, n)
		for i := range chunks {
			chunks[i] = group.Chunk{Addr: 0x700000 + uint64(i)*0x1000 + uint64(i%0x1000), Data: []byte{1}}
		}
		res, err := group.Build(chunks, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Mappings) != n {
			t.Fatalf("%d chunks on distinct pages gave %d mappings", n, len(res.Mappings))
		}
		bin, _ := elf64.Build(elf64.BuildSpec{Text: []byte{0xC3}, Data: []byte("x")})
		return elf64.Compose(bin, 0, nil, Encode(res, 1, nil, 0))
	}
	m := emu.NewMachine()
	if _, err := BuildImage(m, image(MapCountLimit+1)); err == nil {
		t.Fatal("mapping limit not enforced")
	}
	if _, err := BuildImage(m, image(5)); err != nil {
		t.Fatalf("5 mappings should pass: %v", err)
	}
}

func TestUnpatchedBinaryLoads(t *testing.T) {
	bin, _ := elf64.Build(elf64.BuildSpec{Text: []byte{0xC3}, Data: []byte("x")})
	m := emu.NewMachine()
	if _, err := BuildImage(m, bin); err != nil {
		t.Fatal(err)
	}
	if len(m.SigTab) != 0 {
		t.Error("phantom sigtab")
	}
}

// TestEncodeLargeSigTab: the B0 dispatch table is ordered with a real
// sort. The exchange sort it replaces took 16 s for 100 000 entries
// and four times that per doubling, reachable from outside through a
// ForceB0 rewrite of any large binary. This encode takes 30 ms, and
// 200-280 ms under the race detector, which is what the bound leaves
// room for.
func TestEncodeLargeSigTab(t *testing.T) {
	const n = 200_000
	sig := make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		sig[0x401000+i*3] = 0x7000_0000 + i*16
	}
	res := buildGrouped(t)
	start := time.Now()
	blob := Encode(res, 1, sig, 0x401234)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Encode of %d dispatch entries took %v, want < 2s", n, d)
	}
	b, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.SigTab, sig) {
		t.Fatalf("dispatch table did not survive the round trip (%d entries back)", len(b.SigTab))
	}
	// The entries are written in ascending key order (deterministic
	// output), after the header, mappings and blocks.
	tab := blob[len(blob)-16*n:]
	for i := 1; i < n; i++ {
		if binary.LittleEndian.Uint64(tab[16*i:]) <= binary.LittleEndian.Uint64(tab[16*(i-1):]) {
			t.Fatalf("entry %d out of order", i)
		}
	}
}
