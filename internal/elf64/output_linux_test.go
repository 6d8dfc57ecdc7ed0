package elf64

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"e9patch/internal/e9err"
)

// TestWriteOutputCopiesToPipeAndFullDevice: the copying writer falls
// back to plain writes where the kernel cannot copy file to file. A FIFO
// reader sees exactly the writes; /dev/full fails the first one as an
// emit-phase ErrOutput wrapping ENOSPC, and leaves no temporary file.
func TestWriteOutputCopiesToPipeAndFullDevice(t *testing.T) {
	path, _ := inputFile(t)
	for name, in := range openBoth(t, path) {
		parts := copyScript(in.Data, in.Mapped)
		fifo := filepath.Join(t.TempDir(), "fifo")
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Skip(err)
		}
		got := make(chan []byte, 1)
		go func() {
			f, err := os.Open(fifo)
			if err != nil {
				got <- nil
				return
			}
			defer f.Close()
			b, _ := io.ReadAll(f)
			got <- b
		}()
		if err := WriteOutput(fifo, in, writeScript(t, in, parts)); err != nil {
			t.Fatalf("%s: FIFO: %v", name, err)
		}
		if b := <-got; !bytes.Equal(b, scriptBytes(parts)) {
			t.Errorf("%s: the FIFO reader got %d bytes, not the %d written", name, len(b), len(scriptBytes(parts)))
		}
		if st, err := os.Stat(fifo); err != nil || st.Mode()&os.ModeNamedPipe == 0 {
			t.Errorf("%s: the FIFO is now %v (%v)", name, st.Mode(), err)
		}

		if _, err := os.Stat("/dev/full"); err != nil {
			continue
		}
		err := WriteOutput("/dev/full", in, writeScript(t, in, parts))
		var e *e9err.Error
		if !errors.Is(err, e9err.ErrOutput) || !errors.Is(err, syscall.ENOSPC) || !errors.As(err, &e) || e.Phase != "emit" {
			t.Errorf("%s: /dev/full: error %v, want an emit-phase ErrOutput wrapping ENOSPC", name, err)
		}
		if left, _ := filepath.Glob("/dev/full.*.tmp"); len(left) != 0 {
			t.Errorf("%s: /dev/full left %v", name, left)
		}
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip(err)
	}
	return len(ents)
}

// TestInputCloseReleasesDescriptors: a mapped Input holds its file open
// until Close, a heap-read one holds nothing, and Close, which may come
// twice, takes the descriptor count back to where it was on both paths,
// also after the input served a WriteOutput.
func TestInputCloseReleasesDescriptors(t *testing.T) {
	path, _ := inputFile(t)
	out := filepath.Join(t.TempDir(), "out")
	for _, mapped := range []bool{true, false} {
		prev := SetMmapDisabledForTesting(!mapped)
		base := openFDs(t)
		for i := 0; i < 3; i++ {
			in, err := OpenInput(path)
			if err != nil {
				t.Fatal(err)
			}
			held := 0
			if in.Mapped {
				held = 1
			}
			if n := openFDs(t); n != base+held {
				t.Errorf("mapped=%v: %d descriptors open with the input, want %d", in.Mapped, n, base+held)
			}
			if err := WriteOutput(out, in, writeScript(t, in, copyScript(in.Data, in.Mapped))); err != nil {
				t.Fatal(err)
			}
			if err := in.Close(); err != nil {
				t.Fatal(err)
			}
			if err := in.Close(); err != nil || in.Mapped {
				t.Fatalf("second Close: %v, Mapped %v", err, in.Mapped)
			}
		}
		if n := openFDs(t); n != base {
			t.Errorf("mapped=%v: %d descriptors open after Close, want %d", mapped, n, base)
		}
		SetMmapDisabledForTesting(prev)
	}
}
