package elf64

import (
	"bytes"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T, pie bool, bss uint64) []byte {
	t.Helper()
	text := bytes.Repeat([]byte{0x90}, 100)
	text[99] = 0xC3
	data := []byte("hello data")
	out, err := Build(BuildSpec{
		PIE:      pie,
		Text:     text,
		EntryOff: 4,
		Data:     data,
		BSSSize:  bss,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBuildParseRoundTrip(t *testing.T) {
	for _, pie := range []bool{false, true} {
		raw := buildSample(t, pie, 0x2000)
		f, err := Parse(raw)
		if err != nil {
			t.Fatalf("pie=%v: %v", pie, err)
		}
		if f.IsPIE() != pie {
			t.Errorf("IsPIE = %v, want %v", f.IsPIE(), pie)
		}
		text, addr, err := f.Text()
		if err != nil {
			t.Fatal(err)
		}
		if len(text) != 100 {
			t.Errorf("text size = %d", len(text))
		}
		wantBase := uint64(DefaultBase)
		if pie {
			wantBase = 0
		}
		if addr != wantBase+TextVaddrOff {
			t.Errorf("text addr = %#x", addr)
		}
		if f.Header.Entry != addr+4 {
			t.Errorf("entry = %#x, want %#x", f.Header.Entry, addr+4)
		}
		if text[99] != 0xC3 {
			t.Error("text contents corrupted")
		}

		// Sections present and named.
		for _, name := range []string{".text", ".data", ".bss", ".shstrtab"} {
			if _, ok := f.SectionByName(name); !ok {
				t.Errorf("missing section %q", name)
			}
		}
		bssSec, _ := f.SectionByName(".bss")
		if bssSec.Size != 0x2000 {
			t.Errorf("bss size = %#x", bssSec.Size)
		}

		// LoadBounds covers text through bss.
		lo, hi := f.LoadBounds()
		if lo != wantBase {
			t.Errorf("load lo = %#x", lo)
		}
		dataSec, _ := f.SectionByName(".data")
		if want := dataSec.Addr + dataSec.Size + 0x2000; hi != want {
			t.Errorf("load hi = %#x, want %#x", hi, want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(BuildSpec{}); err == nil {
		t.Error("empty text accepted")
	}
	if _, err := Build(BuildSpec{Text: []byte{0x90}, EntryOff: 5}); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Parse([]byte("not an elf file at all....")); err == nil {
		t.Error("bad magic accepted")
	}
	raw := buildSample(t, false, 0)
	raw[4] = 1 // ELFCLASS32
	if _, err := Parse(raw); err == nil {
		t.Error("ELFCLASS32 accepted")
	}
}

func TestPatchBytes(t *testing.T) {
	raw := buildSample(t, false, 0)
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, addr, _ := f.Text()
	if err := f.patchBytes(addr+10, []byte{0xE9, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	text, _, _ := f.Text()
	if text[10] != 0xE9 || text[14] != 4 {
		t.Error("patch not applied in place")
	}
	// .bss is mapped but not file-backed; neither it nor an unmapped
	// address can be patched.
	bss, _ := f.SectionByName(".bss")
	if err := f.patchBytes(bss.Addr+0x10, []byte{1}); err == nil {
		t.Error(".bss patch accepted")
	}
	if err := f.patchBytes(0xdeadbeef000, []byte{1}); err == nil {
		t.Error("unmapped patch accepted")
	}
}

func TestAppendRoundTrip(t *testing.T) {
	raw := buildSample(t, false, 0)
	blob := []byte("trampoline pages and mmap table")
	out := Compose(raw, 0, nil, blob) // the blob-only case

	// The original prefix is untouched.
	if !bytes.Equal(out[:len(raw)], raw) {
		t.Fatal("append modified original bytes")
	}
	got, ok := AppendedBlob(out)
	if !ok {
		t.Fatal("blob not found")
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("blob = %q", got)
	}
	// The appended file still parses.
	if _, err := Parse(out); err != nil {
		t.Fatal(err)
	}
	// Files without a trailer report no blob.
	if _, ok := AppendedBlob(raw); ok {
		t.Error("phantom blob found")
	}
}

func TestAppendProperty(t *testing.T) {
	f := func(blob []byte, pad uint8) bool {
		base := buildSample(t, false, 0)
		// Vary the base length so alignment paths are exercised.
		base = append(base, bytes.Repeat([]byte{0xAA}, int(pad))...)
		out := Compose(base, 0, nil, blob)
		got, ok := AppendedBlob(out)
		return ok && bytes.Equal(got, blob) && bytes.Equal(out[:len(base)], base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
