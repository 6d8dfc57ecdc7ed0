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
	err = WriteOutput(path, func(w io.Writer) error {
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
		err := WriteOutput(path, func(w io.Writer) error {
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
	if err := WriteOutput(absent, func(io.Writer) error { return malformed }); err != error(malformed) {
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
	err := WriteOutput(filepath.Join(dir, "no", "such", "out"), func(io.Writer) error { return nil })
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
	if err := WriteOutput(os.DevNull, func(w io.Writer) error {
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
