package elf64

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenInputMmapAndFallback checks both load paths return identical
// bytes and that Close is safe on each.
func TestOpenInputMmapAndFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.bin")
	want := make([]byte, 3*PageSize+123)
	for i := range want {
		want[i] = byte(i * 31)
	}
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}

	mapped, err := OpenInput(path)
	if err != nil {
		t.Fatalf("OpenInput (mmap): %v", err)
	}
	defer mapped.Close()

	prev := SetMmapDisabledForTesting(true)
	defer SetMmapDisabledForTesting(prev)
	read, err := OpenInput(path)
	if err != nil {
		t.Fatalf("OpenInput (fallback): %v", err)
	}
	defer read.Close()

	if read.Mapped {
		t.Fatal("fallback path reported Mapped")
	}
	if !bytes.Equal(mapped.Data, want) || !bytes.Equal(read.Data, want) {
		t.Fatal("loaded bytes differ from file contents")
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("Close (mmap): %v", err)
	}
	if mapped.Data != nil {
		t.Fatal("Data survives Close on the mmap path")
	}
	if err := read.Close(); err != nil {
		t.Fatalf("Close (fallback): %v", err)
	}
}

// TestOpenInputEmptyAndMissing covers the degenerate cases: an empty
// file loads (fallback; zero-length maps are pointless) and a missing
// path is a classified error.
func TestOpenInputEmptyAndMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := OpenInput(path)
	if err != nil {
		t.Fatalf("OpenInput (empty): %v", err)
	}
	if len(in.Data) != 0 || in.Mapped {
		t.Fatalf("empty file: got %d bytes, mapped=%v", len(in.Data), in.Mapped)
	}
	in.Close()

	if _, err := OpenInput(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file: want error")
	}
}

// TestComposeMatchesPatchPlusAppend pins the output layout: the segment
// list, concatenated by Compose or sent to a writer, is byte-identical
// to mutating the text in place and appending pad, blob and trailer by
// hand.
func TestComposeMatchesPatchPlusAppend(t *testing.T) {
	text := bytes.Repeat([]byte{0x90}, 600)
	raw, err := Build(BuildSpec{Text: text, Data: []byte("data"), BSSSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(append([]byte(nil), raw...))
	if err != nil {
		t.Fatal(err)
	}
	off, addr, size, err := f.TextRange()
	if err != nil {
		t.Fatal(err)
	}
	code := make([]byte, size)
	for i := range code {
		code[i] = byte(i ^ 0x5A)
	}
	blob := []byte("loader blob payload")

	// Reference: mutate a private copy in place, then append.
	if err := f.patchBytes(addr, code); err != nil {
		t.Fatal(err)
	}
	blobOff := (len(raw) + PageSize - 1) / PageSize * PageSize
	want := append(append([]byte(nil), f.Data...), make([]byte, blobOff-len(raw))...)
	want = append(want, blob...)
	want = append(want, trailerMagic...)
	want = le.AppendUint64(want, uint64(blobOff))
	want = le.AppendUint64(want, uint64(len(blob)))

	got := Compose(raw, off, code, blob)
	if !bytes.Equal(got, want) {
		t.Fatalf("Compose diverges from patchBytes plus append (%d vs %d bytes)", len(got), len(want))
	}
	segs := Layout(raw, off, code, blob)
	var buf bytes.Buffer
	n, err := segs.WriteTo(&buf)
	if err != nil || n != int64(len(want)) || segs.Size() != len(want) {
		t.Fatalf("WriteTo = %d, %v and Size = %d, want %d bytes", n, err, segs.Size(), len(want))
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("the written segments diverge from patchBytes plus append")
	}
	// Neither form may have touched the original file bytes.
	if !bytes.Equal(raw[off:off+size], text) {
		t.Fatal("Compose mutated its input")
	}
}
