package emu

import (
	"fmt"
	"sort"
)

// This file is the memory seam for execution engines that bypass the
// interpreter's per-byte access loops (internal/emu/ir). The exported
// operations preserve the interpreter's observable semantics exactly:
// the same write-barrier firing point (before any byte is modified),
// the same fault errors naming the first unmapped byte, and the same
// page-materialisation behaviour on stores.

// ReadInt reads an n-byte little-endian integer (n <= 8). The common
// single-page case costs one page lookup; fault errors are identical to
// the per-byte path (the first unmapped byte is named).
func (m *Memory) ReadInt(addr uint64, n int) (uint64, error) {
	off := addr % PageSize
	if off+uint64(n) <= PageSize {
		p := m.pageFor(addr, false)
		if p == nil {
			return 0, fmt.Errorf("emu: read fault at %#x", addr)
		}
		var v uint64
		for i := 0; i < n; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * uint(i))
		}
		return v, nil
	}
	return m.read(addr, n)
}

// WriteInt stores the low n bytes of v little-endian, firing the write
// barrier first and materialising pages as needed, exactly as the
// interpreter's store path does.
func (m *Memory) WriteInt(addr uint64, v uint64, n int) error {
	return m.write(addr, v, n)
}

// PageSlice returns the backing bytes of the page containing addr, or
// nil when the page is unmapped and create is false. The slice aliases
// emulator memory and stays valid for the lifetime of the Memory
// (pages are never recycled), so engines may cache it as a TLB entry.
// Callers that store through the slice must call FireBarrier first,
// exactly where Memory's own write path fires it.
func (m *Memory) PageSlice(addr uint64, create bool) []byte {
	p := m.pageFor(addr, create)
	if p == nil {
		return nil
	}
	return p[:]
}

// FireBarrier runs the write barrier for a pending store of n bytes at
// addr (a no-op when no barrier is installed). Engines that write
// through PageSlice call this to keep translation-cache invalidation
// semantics identical to the interpreter.
func (m *Memory) FireBarrier(addr uint64, n int) {
	if m.barrier != nil {
		m.barrier(addr, uint64(n))
	}
}

// DiffMemory compares two address spaces byte for byte and returns the
// address of the first differing byte. Unmapped pages read as zero, so
// a mapped all-zero page equals an unmapped one, and a reserved page
// nobody touched equals both: engines that merely materialise pages
// differently do not spuriously diverge. The second result is false
// when the spaces are identical.
func DiffMemory(a, b *Memory) (uint64, bool) {
	seen := make(map[uint64]struct{}, len(a.pages)+len(b.pages))
	idx := make([]uint64, 0, len(a.pages)+len(b.pages))
	for i := range a.pages {
		seen[i] = struct{}{}
		idx = append(idx, i)
	}
	for i := range b.pages {
		if _, ok := seen[i]; !ok {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(x, y int) bool { return idx[x] < idx[y] })
	for _, i := range idx {
		pa, _ := a.ReadBytes(i*PageSize, PageSize)
		pb, _ := b.ReadBytes(i*PageSize, PageSize)
		for off := 0; off < PageSize; off++ {
			if pa[off] != pb[off] {
				return i*PageSize + uint64(off), true
			}
		}
	}
	return 0, false
}
