// Package elf64 implements a from-scratch ELF64 object reader, writer
// and builder for x86-64 executables and shared objects.
//
// The package supports exactly what static binary rewriting needs:
// parsing headers/segments/sections, patching segment bytes strictly
// in place, and appending new data at end-of-file without moving any
// existing bytes (the paper's §5.1 rewriting discipline). It also
// *builds* synthetic executables, which serve as rewriting targets for
// the evaluation harness.
package elf64

import (
	"encoding/binary"
	"fmt"
	"sort"

	"e9patch/internal/e9err"
)

// ELF constants (the subset relevant to x86-64 Linux binaries).
const (
	ClassELF64 = 2
	Data2LSB   = 1
	EVCurrent  = 1

	// Object file types.
	TypeExec = 2 // ET_EXEC: fixed-address executable (non-PIE)
	TypeDyn  = 3 // ET_DYN: shared object or PIE executable

	MachineX86_64 = 62

	// Program header types.
	PTLoad     = 1
	PTDynamic  = 2
	PTInterp   = 3
	PTNote     = 4
	PTPhdr     = 6
	PTGnuStack = 0x6474e551

	// Program header flags.
	PFX = 1
	PFW = 2
	PFR = 4

	// Section header types.
	SHTNull     = 0
	SHTProgbits = 1
	SHTSymtab   = 2
	SHTStrtab   = 3
	SHTNobits   = 8

	// Section flags.
	SHFWrite     = 1
	SHFAlloc     = 2
	SHFExecinstr = 4

	// PageSize is the assumed page size for segment alignment.
	PageSize = 0x1000

	ehdrSize = 64
	phdrSize = 56
	shdrSize = 64
)

// Errors returned by the parser. All three classify under the e9err
// taxonomy (ErrNotELF and ErrTruncated as malformed input,
// ErrUnsupported as unsupported input), so errors.Is works against
// both the local sentinel and the class.
var (
	ErrNotELF      error = e9err.Malformed("parse", "elf64: bad magic")
	ErrTruncated   error = e9err.Malformed("parse", "elf64: truncated file")
	ErrUnsupported error = e9err.Unsupported("parse", "elf64: unsupported ELF variant")
)

// Header mirrors the ELF64 file header.
type Header struct {
	Type     uint16
	Machine  uint16
	Entry    uint64
	PhOff    uint64
	ShOff    uint64
	Flags    uint32
	PhNum    uint16
	ShNum    uint16
	ShStrNdx uint16
}

// Prog mirrors an ELF64 program header.
type Prog struct {
	Type   uint32
	Flags  uint32
	Off    uint64
	Vaddr  uint64
	Paddr  uint64
	Filesz uint64
	Memsz  uint64
	Align  uint64
}

// Section mirrors an ELF64 section header plus its resolved name.
type Section struct {
	Name      string
	NameOff   uint32
	Type      uint32
	Flags     uint64
	Addr      uint64
	Off       uint64
	Size      uint64
	Link      uint32
	Info      uint32
	Addralign uint64
	Entsize   uint64
}

// File is a parsed ELF image. Data aliases the raw file contents;
// in-place patches through Data are the intended mutation mechanism.
type File struct {
	Header   Header
	Progs    []Prog
	Sections []Section
	Data     []byte
}

var le = binary.LittleEndian

// Parse reads an ELF64 little-endian x86-64 file.
func Parse(data []byte) (*File, error) {
	if len(data) < ehdrSize {
		return nil, ErrTruncated
	}
	if data[0] != 0x7F || data[1] != 'E' || data[2] != 'L' || data[3] != 'F' {
		return nil, ErrNotELF
	}
	if data[4] != ClassELF64 {
		return nil, fmt.Errorf("%w: class %d", ErrUnsupported, data[4])
	}
	if data[5] != Data2LSB {
		return nil, fmt.Errorf("%w: byte order %d", ErrUnsupported, data[5])
	}

	f := &File{Data: data}
	h := &f.Header
	h.Type = le.Uint16(data[16:])
	h.Machine = le.Uint16(data[18:])
	h.Entry = le.Uint64(data[24:])
	h.PhOff = le.Uint64(data[32:])
	h.ShOff = le.Uint64(data[40:])
	h.Flags = le.Uint32(data[48:])
	h.PhNum = le.Uint16(data[56:])
	h.ShNum = le.Uint16(data[60:])
	h.ShStrNdx = le.Uint16(data[62:])

	if h.Machine != MachineX86_64 {
		return nil, fmt.Errorf("%w: machine %d", ErrUnsupported, h.Machine)
	}

	// Program headers. The bound check must be overflow-safe: a hostile
	// PhOff near 2^64 would wrap PhOff+PhNum*56 back below len(data) and
	// send the loop indexing past the slice.
	if h.PhNum > 0 && !spanInside(h.PhOff, uint64(h.PhNum)*phdrSize, uint64(len(data))) {
		return nil, fmt.Errorf("%w: program headers", ErrTruncated)
	}
	for i := 0; i < int(h.PhNum); i++ {
		p := data[h.PhOff+uint64(i)*phdrSize:]
		f.Progs = append(f.Progs, Prog{
			Type:   le.Uint32(p[0:]),
			Flags:  le.Uint32(p[4:]),
			Off:    le.Uint64(p[8:]),
			Vaddr:  le.Uint64(p[16:]),
			Paddr:  le.Uint64(p[24:]),
			Filesz: le.Uint64(p[32:]),
			Memsz:  le.Uint64(p[40:]),
			Align:  le.Uint64(p[48:]),
		})
	}

	// Section headers (optional: stripped binaries may omit them).
	if h.ShOff != 0 && h.ShNum > 0 {
		if !spanInside(h.ShOff, uint64(h.ShNum)*shdrSize, uint64(len(data))) {
			return nil, fmt.Errorf("%w: section headers", ErrTruncated)
		}
		raw := make([]Section, h.ShNum)
		for i := 0; i < int(h.ShNum); i++ {
			sh := data[h.ShOff+uint64(i)*shdrSize:]
			raw[i] = Section{
				NameOff:   le.Uint32(sh[0:]),
				Type:      le.Uint32(sh[4:]),
				Flags:     le.Uint64(sh[8:]),
				Addr:      le.Uint64(sh[16:]),
				Off:       le.Uint64(sh[24:]),
				Size:      le.Uint64(sh[32:]),
				Link:      le.Uint32(sh[40:]),
				Info:      le.Uint32(sh[44:]),
				Addralign: le.Uint64(sh[48:]),
				Entsize:   le.Uint64(sh[56:]),
			}
		}
		// Resolve names from the section-name string table.
		if int(h.ShStrNdx) < len(raw) {
			str := raw[h.ShStrNdx]
			if spanInside(str.Off, str.Size, uint64(len(data))) {
				tab := data[str.Off : str.Off+str.Size]
				for i := range raw {
					raw[i].Name = cstr(tab, raw[i].NameOff)
				}
			}
		}
		f.Sections = raw
	}

	// Loadable segments must be internally consistent: file-backed bytes
	// inside the file, memory size covering the file size, and no
	// address wrap-around. Downstream phases (address-space reservation,
	// patching, the loader) all assume these invariants.
	for i := range f.Progs {
		p := &f.Progs[i]
		if p.Type != PTLoad {
			continue
		}
		if p.Filesz > 0 && !spanInside(p.Off, p.Filesz, uint64(len(data))) {
			return nil, fmt.Errorf("%w: PT_LOAD[%d] file bytes [%#x,+%#x) overrun file",
				ErrTruncated, i, p.Off, p.Filesz)
		}
		if p.Memsz < p.Filesz {
			return nil, e9err.MalformedAt("parse", p.Vaddr,
				"elf64: PT_LOAD[%d] memsz %#x < filesz %#x", i, p.Memsz, p.Filesz)
		}
		if p.Vaddr+p.Memsz < p.Vaddr {
			return nil, e9err.MalformedAt("parse", p.Vaddr,
				"elf64: PT_LOAD[%d] wraps the address space (memsz %#x)", i, p.Memsz)
		}
	}
	return f, nil
}

// spanInside reports whether [off, off+size) lies inside [0, limit)
// without overflowing: the form off <= limit && size <= limit-off is
// safe for any uint64 inputs, unlike off+size <= limit.
func spanInside(off, size, limit uint64) bool {
	return off <= limit && size <= limit-off
}

func cstr(tab []byte, off uint32) string {
	if int(off) >= len(tab) {
		return ""
	}
	end := int(off)
	for end < len(tab) && tab[end] != 0 {
		end++
	}
	return string(tab[off:end])
}

// SectionByName returns the named section.
func (f *File) SectionByName(name string) (*Section, bool) {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return &f.Sections[i], true
		}
	}
	return nil, false
}

// Text returns the .text section contents and virtual address.
func (f *File) Text() (data []byte, addr uint64, err error) {
	off, addr, size, err := f.TextRange()
	if err != nil {
		return nil, 0, err
	}
	return f.Data[off : off+size], addr, nil
}

// ExecSpan describes one executable byte range of the file: its file
// offset, link-time virtual address, size, and the section it came
// from ("" when the span was derived from a program header).
type ExecSpan struct {
	Name string
	Off  uint64
	Addr uint64
	Size uint64
}

// ExecSpans enumerates the executable code ranges of the binary in
// ascending address order: one span per allocated SHF_EXECINSTR
// progbits section when section headers are present (.text, .init,
// .plt, …), otherwise one per executable PT_LOAD segment — stripped
// binaries lose their section table but never their program headers.
// Every span is validated against the file bounds, so callers may
// slice f.Data with it directly.
func (f *File) ExecSpans() ([]ExecSpan, error) {
	var out []ExecSpan
	for i := range f.Sections {
		s := &f.Sections[i]
		if s.Type != SHTProgbits || s.Flags&SHFExecinstr == 0 || s.Flags&SHFAlloc == 0 || s.Size == 0 {
			continue
		}
		if !spanInside(s.Off, s.Size, uint64(len(f.Data))) {
			return nil, fmt.Errorf("%w: section %s [%#x,+%#x) overruns file", ErrTruncated, s.Name, s.Off, s.Size)
		}
		out = append(out, ExecSpan{Name: s.Name, Off: s.Off, Addr: s.Addr, Size: s.Size})
	}
	if len(out) == 0 {
		for i := range f.Progs {
			p := &f.Progs[i]
			if p.Type != PTLoad || p.Flags&PFX == 0 || p.Filesz == 0 {
				continue
			}
			// Parse already bounds-checked PT_LOAD file bytes.
			out = append(out, ExecSpan{Off: p.Off, Addr: p.Vaddr, Size: p.Filesz})
		}
	}
	if len(out) == 0 {
		return nil, e9err.Unsupported("parse", "elf64: no executable sections or segments")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out, nil
}

// TextRange returns the file offset, virtual address and size of the
// primary code range, validated against the file bounds: the .text
// section when one exists, otherwise the largest executable span —
// shared objects and stripped binaries are first-class inputs, not
// parse errors. Callers that must not mutate f.Data (the zero-copy
// paths) use the offset to overlay a patched text image while
// composing the output.
func (f *File) TextRange() (off, addr, size uint64, err error) {
	if s, ok := f.SectionByName(".text"); ok {
		if !spanInside(s.Off, s.Size, uint64(len(f.Data))) {
			return 0, 0, 0, fmt.Errorf("%w: .text [%#x,+%#x) overruns file", ErrTruncated, s.Off, s.Size)
		}
		return s.Off, s.Addr, s.Size, nil
	}
	spans, err := f.ExecSpans()
	if err != nil {
		return 0, 0, 0, err
	}
	best := spans[0]
	for _, sp := range spans[1:] {
		if sp.Size > best.Size {
			best = sp
		}
	}
	return best.Off, best.Addr, best.Size, nil
}

// IsPIE reports whether the file is position independent (ET_DYN).
func (f *File) IsPIE() bool { return f.Header.Type == TypeDyn }

// IsDSO reports whether the file looks like a plain shared library
// rather than a PIE executable: position independent with no entry
// point. (Both are ET_DYN; the zero entry is the conventional
// distinction and is exactly what our synthetic .so workloads emit.)
func (f *File) IsDSO() bool { return f.Header.Type == TypeDyn && f.Header.Entry == 0 }

// patchBytes overwrites len(b) bytes at the given virtual address,
// strictly in place. It fails if the address is not file-backed.
func (f *File) patchBytes(vaddr uint64, b []byte) error {
	for _, p := range f.Progs {
		// vaddr-p.Vaddr < p.Filesz is the overflow-safe form of the
		// half-open range test (Parse validated Off+Filesz already).
		if p.Type != PTLoad || vaddr < p.Vaddr || vaddr-p.Vaddr >= p.Filesz {
			continue
		}
		off := p.Off + (vaddr - p.Vaddr)
		if !spanInside(off, uint64(len(b)), uint64(len(f.Data))) {
			return e9err.MalformedAt("emit", vaddr, "elf64: patch of %d bytes overruns file", len(b))
		}
		copy(f.Data[off:], b)
		return nil
	}
	return e9err.MalformedAt("emit", vaddr, "elf64: vaddr not mapped from file")
}

// LoadBounds returns the lowest and highest virtual addresses covered
// by PT_LOAD segments (memsz, i.e. including .bss).
func (f *File) LoadBounds() (lo, hi uint64) {
	lo = ^uint64(0)
	for _, p := range f.Progs {
		if p.Type != PTLoad {
			continue
		}
		if p.Vaddr < lo {
			lo = p.Vaddr
		}
		if end := p.Vaddr + p.Memsz; end > hi {
			hi = end
		}
	}
	if lo == ^uint64(0) {
		lo = 0
	}
	return lo, hi
}

func writeEhdr(buf []byte, h *Header) {
	copy(buf, []byte{0x7F, 'E', 'L', 'F', ClassELF64, Data2LSB, EVCurrent})
	le.PutUint16(buf[16:], h.Type)
	le.PutUint16(buf[18:], h.Machine)
	le.PutUint32(buf[20:], EVCurrent)
	le.PutUint64(buf[24:], h.Entry)
	le.PutUint64(buf[32:], h.PhOff)
	le.PutUint64(buf[40:], h.ShOff)
	le.PutUint32(buf[48:], h.Flags)
	le.PutUint16(buf[52:], ehdrSize)
	le.PutUint16(buf[54:], phdrSize)
	le.PutUint16(buf[56:], h.PhNum)
	le.PutUint16(buf[58:], shdrSize)
	le.PutUint16(buf[60:], h.ShNum)
	le.PutUint16(buf[62:], h.ShStrNdx)
}

func writePhdr(buf []byte, p *Prog) {
	le.PutUint32(buf[0:], p.Type)
	le.PutUint32(buf[4:], p.Flags)
	le.PutUint64(buf[8:], p.Off)
	le.PutUint64(buf[16:], p.Vaddr)
	le.PutUint64(buf[24:], p.Paddr)
	le.PutUint64(buf[32:], p.Filesz)
	le.PutUint64(buf[40:], p.Memsz)
	le.PutUint64(buf[48:], p.Align)
}

func writeShdr(buf []byte, s *Section) {
	le.PutUint32(buf[0:], s.NameOff)
	le.PutUint32(buf[4:], s.Type)
	le.PutUint64(buf[8:], s.Flags)
	le.PutUint64(buf[16:], s.Addr)
	le.PutUint64(buf[24:], s.Off)
	le.PutUint64(buf[32:], s.Size)
	le.PutUint32(buf[40:], s.Link)
	le.PutUint32(buf[44:], s.Info)
	le.PutUint64(buf[48:], s.Addralign)
	le.PutUint64(buf[56:], s.Entsize)
}
