package elf64

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"e9patch/internal/e9err"
)

// dirNames lists dir, to show that no temporary file outlives a call.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestWriteOutputOverMappedInput is the case the helper exists for: the
// output path names the file the input is mapped from, and the writer is
// fed from that mapping. Truncating the path in place would fault on the
// first read of the mapping; replacing it by rename leaves the mapping on
// the old inode.
func TestWriteOutputOverMappedInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bin")
	orig := bytes.Repeat([]byte("0123456789abcdef"), 3*PageSize/16)
	if err := os.WriteFile(path, orig, 0o600); err != nil {
		t.Fatal(err)
	}
	in, err := OpenInput(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	tail := []byte("appendix")
	err = WriteOutput(path, in, func(w io.Writer) error {
		if _, err := w.Write(in.Data[:PageSize]); err != nil {
			return err
		}
		if _, err := w.Write(in.Data[PageSize:]); err != nil {
			return err
		}
		_, err := w.Write(tail)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), orig...), tail...)) {
		t.Fatalf("output is %d bytes, not the input plus the appendix", len(got))
	}
	if !bytes.Equal(in.Data, orig) {
		t.Fatal("the mapping changed under the write")
	}
	// A new file, so an executable one whatever the input's mode was.
	if st, err := os.Stat(path); err != nil || st.Mode().Perm()&0o100 == 0 {
		t.Fatalf("output mode %v, %v: want executable", st.Mode(), err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want the output only", names)
	}
}

// TestWriteOutputFailureLeavesNothing: when the write fails part-way the
// path keeps what it held (or stays absent) and no temporary file is left.
// An unclassified cause comes back as ErrOutput wrapping it; a classified
// one (a rewrite that failed before writing) comes back as it is.
func TestWriteOutputFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	absent, held := filepath.Join(dir, "absent"), filepath.Join(dir, "held")
	if err := os.WriteFile(held, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("disk on fire")
	for _, path := range []string{absent, held} {
		err := WriteOutput(path, nil, func(w io.Writer) error {
			if _, err := w.Write([]byte("partial")); err != nil {
				return err
			}
			return cause
		})
		var e *e9err.Error
		if !errors.Is(err, cause) || !errors.Is(err, e9err.ErrOutput) || !errors.As(err, &e) || e.Phase != "emit" {
			t.Fatalf("%s: error %v, want an emit-phase ErrOutput wrapping the cause", path, err)
		}
	}
	malformed := e9err.Malformed("parse", "not an ELF")
	if err := WriteOutput(absent, nil, func(io.Writer) error { return malformed }); err != error(malformed) {
		t.Fatalf("classified cause came back as %v", err)
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Fatalf("a failed write left %s behind (%v)", absent, err)
	}
	if got, _ := os.ReadFile(held); string(got) != "previous" {
		t.Fatalf("a failed write changed the existing output to %q", got)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want the untouched output only", names)
	}
	// No directory to put the temporary file in.
	err := WriteOutput(filepath.Join(dir, "no", "such", "out"), nil, func(io.Writer) error { return nil })
	if !errors.Is(err, e9err.ErrOutput) || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing directory: error %v", err)
	}
}

// TestWriteOutputKeepsDevices: -o /dev/null writes into the device; the
// rename that makes a regular output safe would replace it with a file.
func TestWriteOutputKeepsDevices(t *testing.T) {
	before, err := os.Stat(os.DevNull)
	if err != nil {
		t.Skip(err)
	}
	if err := WriteOutput(os.DevNull, nil, func(w io.Writer) error {
		_, err := w.Write([]byte("gone"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(os.DevNull)
	if err != nil || after.Mode() != before.Mode() || !os.SameFile(before, after) {
		t.Fatalf("%s is now %v (%v), was %v", os.DevNull, after.Mode(), err, before.Mode())
	}
}

// copyPart is one Write of copyScript: its bytes, and the input file
// offset they are copied from, or -1 when the writer must write them as
// they are.
type copyPart struct {
	p   []byte
	off int64
}

// copyScript is a write sequence over data, a file's contents as
// OpenInput loaded them: parts of it at offset 0, mid-file, ending at
// EOF and of length 0, an equal-bytes heap copy of a part and bytes of
// its own. mapped says whether data is an mmap view, so its non-empty
// parts are copied from the file.
func copyScript(data []byte, mapped bool) []copyPart {
	n := len(data)
	at := func(lo, hi int) copyPart {
		if !mapped || lo == hi {
			return copyPart{data[lo:hi], -1}
		}
		return copyPart{data[lo:hi], int64(lo)}
	}
	return []copyPart{
		at(0, PageSize),
		at(n, n),
		at(PageSize+7, 2*PageSize+100),
		{append([]byte(nil), data[10:300]...), -1},
		at(5, 5),
		{[]byte("appendix"), -1},
		at(2*PageSize, n),
		at(0, 0),
	}
}

// scriptBytes is what copyScript's writes make up.
func scriptBytes(parts []copyPart) []byte {
	var b []byte
	for _, c := range parts {
		b = append(b, c.p...)
	}
	return b
}

// writeScript returns a write function for WriteOutput that sends parts
// one Write each and checks, through the input file's offset, that
// exactly the parts with an offset were copied from in's file.
func writeScript(t *testing.T, in *Input, parts []copyPart) func(io.Writer) error {
	return func(w io.Writer) error {
		for i, c := range parts {
			if in.Mapped {
				if _, err := in.file.Seek(1, io.SeekStart); err != nil {
					t.Fatal(err)
				}
			}
			n, err := w.Write(c.p)
			if err != nil {
				return err
			}
			if n != len(c.p) {
				t.Errorf("part %d: wrote %d of %d bytes", i, n, len(c.p))
			}
			if !in.Mapped {
				continue
			}
			pos, err := in.file.Seek(0, io.SeekCurrent)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.off + int64(len(c.p)); c.off >= 0 && pos != want {
				t.Errorf("part %d: the input file is at %d after the copy, want %d", i, pos, want)
			} else if c.off < 0 && pos != 1 {
				t.Errorf("part %d: written as it is, yet the input file moved to %d", i, pos)
			}
		}
		return nil
	}
}

// openBoth opens path through the mmap path and the heap fallback.
func openBoth(t *testing.T, path string) map[string]*Input {
	t.Helper()
	inputs := map[string]*Input{}
	for _, mapped := range []bool{true, false} {
		prev := SetMmapDisabledForTesting(!mapped)
		in, err := OpenInput(path)
		SetMmapDisabledForTesting(prev)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { in.Close() })
		if in.Mapped != mapped {
			if mapped {
				continue // no mmap on this platform
			}
			t.Fatal("the fallback path reported Mapped")
		}
		name := "heap"
		if mapped {
			name = "mapped"
		}
		inputs[name] = in
	}
	return inputs
}

// inputFile writes a three-and-a-bit-page file of varied bytes.
func inputFile(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.bin")
	data := make([]byte, 3*PageSize+123)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestWriteOutputCopiesFromInput: with a mapped input, WriteOutput's
// writer copies the parts of the mapping from the input file, at offset
// 0, mid-file and up to EOF, writes empty parts, heap bytes (even equal
// ones) and a heap-read input's bytes as they are, and the output is
// byte-identical either way, to a new file and to a device.
func TestWriteOutputCopiesFromInput(t *testing.T) {
	path, data := inputFile(t)
	for name, in := range openBoth(t, path) {
		parts := copyScript(in.Data, in.Mapped)
		want := scriptBytes(parts)
		if !bytes.Equal(want, scriptBytes(copyScript(data, false))) {
			t.Fatalf("%s: the loaded input differs from the file", name)
		}
		out := filepath.Join(t.TempDir(), "out")
		if err := WriteOutput(out, in, writeScript(t, in, parts)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the output (%d bytes, %v) differs from the writes (%d bytes)", name, len(got), err, len(want))
		}
		if err := WriteOutput(os.DevNull, in, writeScript(t, in, parts)); err != nil {
			t.Errorf("%s: -o %s: %v", name, os.DevNull, err)
		}
		if !bytes.Equal(in.Data, data) {
			t.Fatalf("%s: the input changed under the copies", name)
		}
	}
}
