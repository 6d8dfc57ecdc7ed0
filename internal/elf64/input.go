package elf64

import (
	"fmt"
	"io"
	"os"
	"unsafe"

	"e9patch/internal/e9err"
)

// Input is a binary loaded for rewriting with zero-copy intent: on
// platforms with mmap support the file is mapped read-only and Data
// aliases the mapping, so a browser-class input never lands on the Go
// heap at all. When mapping is unavailable (or fails — network
// filesystems, exotic mounts) the portable fallback reads the file
// into memory; both paths yield byte-identical Data, which the
// differential tests assert across the hostile corpus.
//
// The rewrite pipeline never mutates its input (the immutability tests
// cover this), so a read-only shared mapping is safe to hand to Plan,
// Apply, Rewrite and Stream directly.
//
// A mapped Input keeps its file open until Close, so that WriteOutput
// can copy the output's unchanged input bytes file to file instead of
// paging them through the mapping. The copies share the file's offset:
// one Input must not serve two WriteOutput calls at once.
type Input struct {
	// Data is the file contents: an mmap view or a heap copy.
	Data []byte
	// Mapped reports whether Data is an mmap view (false: heap).
	Mapped bool

	mapping []byte   // the exact slice to unmap, when Mapped
	file    *os.File // the file mapping views, when Mapped
}

// disableMmap forces the portable read path; the fallback differential
// tests flip it to simulate mmap failure.
var disableMmap = false

// SetMmapDisabledForTesting forces (or restores) the portable read
// path and returns the previous setting. Test-only.
func SetMmapDisabledForTesting(disabled bool) (prev bool) {
	prev = disableMmap
	disableMmap = disabled
	return prev
}

// OpenInput loads path for rewriting, preferring a read-only mmap view
// and falling back to a plain read. Errors opening or reading the file
// are classified as malformed input (the caller named a file we cannot
// load); mmap failure alone is not an error — it selects the fallback.
func OpenInput(path string) (*Input, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, e9err.Wrap(e9err.ErrMalformed, "parse", fmt.Errorf("elf64: open input: %w", err))
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, e9err.Wrap(e9err.ErrMalformed, "parse", fmt.Errorf("elf64: stat input: %w", err))
	}
	if st.Size() > 0 && !disableMmap {
		if m, err := mmapFile(f, st.Size()); err == nil {
			return &Input{Data: m, Mapped: true, mapping: m, file: f}, nil
		}
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, e9err.Wrap(e9err.ErrMalformed, "parse", fmt.Errorf("elf64: read input: %w", err))
	}
	return &Input{Data: data}, nil
}

// Close releases the mapping and its file, if any. Data must not be used
// after Close. Safe on the fallback path, on a nil receiver and more
// than once.
func (in *Input) Close() error {
	if in == nil || !in.Mapped {
		return nil
	}
	m, f := in.mapping, in.file
	in.Data, in.mapping, in.file, in.Mapped = nil, nil, nil, false
	err := munmapFile(m)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// offsetOf reports the file offset of p when p is a non-empty part of
// in's mapping.
func (in *Input) offsetOf(p []byte) (int64, bool) {
	if in == nil || !in.Mapped || len(p) == 0 {
		return 0, false
	}
	off := uintptr(unsafe.Pointer(unsafe.SliceData(p))) - uintptr(unsafe.Pointer(unsafe.SliceData(in.mapping)))
	if off >= uintptr(len(in.mapping)) || uintptr(len(p)) > uintptr(len(in.mapping))-off {
		return 0, false
	}
	return int64(off), true
}

// fileCopier is the writer WriteOutput hands out for a mapped input: a
// Write of a part of the mapping becomes a copy from the input file at
// the same offset, which the kernel makes file to file (copy_file_range)
// where it can, so those bytes are never paged into this process. Any
// other Write goes to dst as it is.
type fileCopier struct {
	dst  *os.File
	from *Input
}

func (w fileCopier) Write(p []byte) (int, error) {
	off, ok := w.from.offsetOf(p)
	if !ok {
		return w.dst.Write(p)
	}
	if _, err := w.from.file.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	n, err := w.dst.ReadFrom(io.LimitReader(w.from.file, int64(len(p))))
	if err == nil && n < int64(len(p)) {
		// The file shrank under its mapping.
		err = io.ErrUnexpectedEOF
	}
	return int(n), err
}
