package elf64

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"e9patch/internal/e9err"
)

// TestSharedBuildRoundTrip: Shared builds a plain .so — ET_DYN, zero
// entry point, PIE layout — that parses back as a first-class input.
func TestSharedBuildRoundTrip(t *testing.T) {
	text := bytes.Repeat([]byte{0x90}, 64)
	text[63] = 0xC3
	raw, err := Build(BuildSpec{
		Shared:  true,
		Text:    text,
		Data:    []byte("so data"),
		BSSSize: 0x800,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsDSO() {
		t.Fatal("shared build does not parse as a DSO")
	}
	if !f.IsPIE() {
		t.Error("a DSO is position independent")
	}
	if f.Header.Entry != 0 {
		t.Errorf("entry = %#x, want 0", f.Header.Entry)
	}
	got, addr, err := f.Text()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, text) {
		t.Error("text corrupted")
	}
	if addr == 0 || addr >= DefaultBase {
		t.Errorf("DSO text addr = %#x, want a small PIE-layout address", addr)
	}

	// A PIE executable is not a DSO: the entry point distinguishes them.
	pie := buildSample(t, true, 0)
	fp, err := Parse(pie)
	if err != nil {
		t.Fatal(err)
	}
	if fp.IsDSO() {
		t.Error("PIE executable classified as DSO")
	}
	if exe := buildSample(t, false, 0); func() bool {
		fe, err := Parse(exe)
		if err != nil {
			t.Fatal(err)
		}
		return fe.IsDSO()
	}() {
		t.Error("ET_EXEC classified as DSO")
	}
}

// TestInitSegmentSpans: a build with an extra .init code blob carries
// two executable segments; ExecSpans reports both in address order and
// TextRange still prefers .text.
func TestInitSegmentSpans(t *testing.T) {
	text := bytes.Repeat([]byte{0xC3}, 128)
	init := bytes.Repeat([]byte{0x90}, 32)
	raw, err := Build(BuildSpec{
		PIE:     true,
		Text:    text,
		Init:    init,
		Data:    []byte("d"),
		BSSSize: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := f.ExecSpans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("ExecSpans = %d spans, want .text and .init", len(spans))
	}
	if spans[0].Name != ".text" || spans[1].Name != ".init" {
		t.Fatalf("spans = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[1].Addr <= spans[0].Addr {
		t.Error("spans not in address order")
	}
	if !bytes.Equal(raw[spans[1].Off:spans[1].Off+spans[1].Size], init) {
		t.Error(".init contents corrupted")
	}
	// Two executable PT_LOADs back the two sections.
	execSegs := 0
	for _, p := range f.Progs {
		if p.Type == PTLoad && p.Flags&PFX != 0 {
			execSegs++
		}
	}
	if execSegs != 2 {
		t.Errorf("executable PT_LOAD count = %d, want 2", execSegs)
	}
	off, _, size, err := f.TextRange()
	if err != nil {
		t.Fatal(err)
	}
	if off != spans[0].Off || size != spans[0].Size {
		t.Error("TextRange did not pick .text")
	}
}

// TestTextRangeSectionFallback: when no section is literally named
// ".text" the primary code range falls back to the largest executable
// span — renaming the section must not make the binary unparseable.
func TestTextRangeSectionFallback(t *testing.T) {
	raw := buildSample(t, false, 0)
	// Rename .text -> .code in the section string table (same length).
	i := bytes.Index(raw, []byte(".text\x00"))
	if i < 0 {
		t.Fatal("no .text name in shstrtab")
	}
	copy(raw[i:], []byte(".code\x00"))
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.SectionByName(".text"); ok {
		t.Fatal("rename did not take")
	}
	text, _, err := f.Text()
	if err != nil {
		t.Fatalf("Text() after rename: %v", err)
	}
	if len(text) != 100 || text[99] != 0xC3 {
		t.Error("fallback picked the wrong span")
	}
}

// TestExecSpansStripped: with the section table zeroed out (a stripped
// binary) the spans come from the executable PT_LOAD segments.
func TestExecSpansStripped(t *testing.T) {
	raw := buildSample(t, false, 0)
	// Zero e_shoff (offset 0x28), e_shnum (0x3C) and e_shstrndx (0x3E).
	binary.LittleEndian.PutUint64(raw[0x28:], 0)
	binary.LittleEndian.PutUint16(raw[0x3C:], 0)
	binary.LittleEndian.PutUint16(raw[0x3E:], 0)
	f, err := Parse(raw)
	if err != nil {
		t.Fatalf("stripped binary does not parse: %v", err)
	}
	if len(f.Sections) != 0 {
		t.Fatalf("stripped binary still has %d sections", len(f.Sections))
	}
	spans, err := f.ExecSpans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want the one executable segment", len(spans))
	}
	if spans[0].Size == 0 || spans[0].Name != "" {
		t.Errorf("segment span = %+v", spans[0])
	}
	text, _, err := f.Text()
	if err != nil {
		t.Fatal(err)
	}
	if len(text) == 0 || !bytes.Contains(text, []byte{0xC3}) {
		t.Error("stripped text fallback lost the code")
	}
}

// TestBuildBackCompat: the Shared and Init switches leave the plain
// build byte-identical — existing goldens and benchmarks are
// unperturbed by the new fields.
func TestBuildBackCompat(t *testing.T) {
	spec := BuildSpec{
		PIE:      true,
		Text:     bytes.Repeat([]byte{0x90}, 32),
		EntryOff: 0,
		Data:     []byte("x"),
		BSSSize:  64,
	}
	a, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shared = false
	spec.Init = nil
	b, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("zero-valued Shared/Init changed the build output")
	}
}

// TestTextRangeMustBeLoaded: the rewriter patches the text's file bytes
// and branches to its addresses, so a .text whose address no PT_LOAD
// maps from its file offset, or that overlaps the file's headers, is
// malformed, and a stripped binary's span starts past the headers its
// segment loads. (Rewriting a .text at address 0x1000 over the ELF
// header used to succeed and overwrite the ELF magic with a jump.)
func TestTextRangeMustBeLoaded(t *testing.T) {
	raw := buildSample(t, false, 0)
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	off, addr, size, err := f.TextRange()
	if err != nil {
		t.Fatal(err)
	}
	var hdr int // the file offset of .text's section header
	for i := range f.Sections {
		if f.Sections[i].Name == ".text" {
			hdr = int(f.Header.ShOff) + i*shdrSize
		}
	}
	for _, tc := range []struct {
		name            string
		addr, off, size uint64
	}{
		{"at an address no segment loads", 0x1000, off, size},
		{"one byte off its segment's mapping", addr + 1, off, size},
		{"past its segment's file bytes", addr, off, uint64(len(raw)) - off},
		{"over the ELF header", addr - off, 0, size},
		{"over the program headers", addr - off + ehdrSize, ehdrSize, size},
	} {
		bad := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(bad[hdr+16:], tc.addr)
		binary.LittleEndian.PutUint64(bad[hdr+24:], tc.off)
		binary.LittleEndian.PutUint64(bad[hdr+32:], tc.size)
		f, err := Parse(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := f.TextRange(); !errors.Is(err, e9err.ErrMalformed) {
			t.Errorf("%s: TextRange error %v, want malformed", tc.name, err)
		}
	}

	// Stripped, the span is the executable segment less the headers
	// at its start.
	binary.LittleEndian.PutUint64(raw[0x28:], 0)
	binary.LittleEndian.PutUint16(raw[0x3C:], 0)
	binary.LittleEndian.PutUint16(raw[0x3E:], 0)
	if f, err = Parse(raw); err != nil {
		t.Fatal(err)
	}
	head := uint64(ehdrSize + len(f.Progs)*phdrSize)
	if off, _, size, err := f.TextRange(); err != nil || off != head || off+size != f.Progs[0].Filesz {
		t.Errorf("stripped text [%#x,+%#x) (%v), want [%#x,%#x)", off, size, err, head, f.Progs[0].Filesz)
	}
}
