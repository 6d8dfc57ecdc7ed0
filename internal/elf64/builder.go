package elf64

import (
	"errors"
	"fmt"
	"io"
)

// BuildSpec describes a synthetic executable or shared object to build.
type BuildSpec struct {
	// PIE selects ET_DYN with a zero link base; otherwise ET_EXEC at
	// Base (default 0x400000).
	PIE bool
	// Shared builds a plain shared object: ET_DYN (PIE layout is
	// implied) with a zero entry point, the conventional .so shape.
	Shared bool
	// Base is the link base address for non-PIE binaries.
	Base uint64
	// Text is the .text machine code.
	Text []byte
	// EntryOff is the entry point offset within .text (ignored for
	// Shared objects, whose entry is 0).
	EntryOff uint64
	// Init, when non-empty, adds a second executable region: an .init
	// section carried by its own RX PT_LOAD segment between text and
	// data — the multi-exec-segment geometry real binaries have
	// (.init/.plt/.text) in miniature.
	Init []byte
	// Data is the initialised .data contents.
	Data []byte
	// BSSSize is the size of the zero-initialised .bss after .data.
	BSSSize uint64
	// Symbols, when non-empty, adds a .symtab/.strtab pair exposing
	// the entries as global function symbols — how spec-language
	// payloads name their patch functions. Addresses are absolute.
	Symbols []Sym
}

// DefaultBase is the traditional ld non-PIE link base.
const DefaultBase = 0x400000

// TextVaddrOff is the offset of .text above the link base.
const TextVaddrOff = PageSize

// Build assembles a minimal static ELF64 binary: headers, an RX text
// segment, an RW data segment with optional .bss, section headers and
// a section-name string table.
func Build(spec BuildSpec) ([]byte, error) {
	if len(spec.Text) == 0 {
		return nil, errors.New("elf64: empty .text")
	}
	if spec.EntryOff >= uint64(len(spec.Text)) {
		return nil, fmt.Errorf("elf64: entry offset %#x outside .text", spec.EntryOff)
	}
	pie := spec.PIE || spec.Shared
	base := spec.Base
	if pie {
		base = 0
	} else if base == 0 {
		base = DefaultBase
	}

	textOff := uint64(PageSize)
	textAddr := base + TextVaddrOff
	textEnd := textOff + uint64(len(spec.Text))

	haveInit := len(spec.Init) > 0
	var initOff, initAddr uint64
	initEnd := textEnd
	if haveInit {
		initOff = alignUp(textEnd, PageSize)
		initAddr = base + initOff
		initEnd = initOff + uint64(len(spec.Init))
	}

	dataOff := alignUp(initEnd, PageSize)
	dataAddr := base + dataOff
	dataEnd := dataOff + uint64(len(spec.Data))

	strtab := []byte("\x00.text\x00.data\x00.bss\x00.shstrtab\x00")
	nameText := uint32(1)
	nameData := uint32(7)
	nameBSS := uint32(13)
	nameShstr := uint32(18)
	var nameInit uint32
	if haveInit {
		nameInit = uint32(len(strtab))
		strtab = append(strtab, ".init\x00"...)
	}

	// The symbol table is appended after .data; without symbols the
	// layout (and every byte) is identical to the symbol-free format.
	haveSyms := len(spec.Symbols) > 0
	var nameSymtab, nameStrtab uint32
	var symOff, symSize64, symStrOff uint64
	var symStrs []byte
	if haveSyms {
		nameSymtab = uint32(len(strtab))
		strtab = append(strtab, ".symtab\x00"...)
		nameStrtab = uint32(len(strtab))
		strtab = append(strtab, ".strtab\x00"...)
		symOff = alignUp(dataEnd, 8)
		symSize64 = uint64(1+len(spec.Symbols)) * symSize
		symStrOff = symOff + symSize64
		symStrs = []byte{0}
		for i := range spec.Symbols {
			symStrs = append(symStrs, spec.Symbols[i].Name...)
			symStrs = append(symStrs, 0)
		}
	}

	strtabOff := alignUp(dataEnd, 16)
	if haveSyms {
		strtabOff = alignUp(symStrOff+uint64(len(symStrs)), 16)
	}
	shOff := alignUp(strtabOff+uint64(len(strtab)), 8)

	shNum := uint64(5)
	if haveInit {
		shNum++
	}
	if haveSyms {
		shNum += 2
	}
	total := shOff + shNum*shdrSize
	out := make([]byte, total)

	fileType := uint16(TypeExec)
	if pie {
		fileType = TypeDyn
	}

	progs := []Prog{
		{
			Type: PTLoad, Flags: PFR | PFX,
			Off: 0, Vaddr: base, Paddr: base,
			Filesz: textEnd, Memsz: textEnd, Align: PageSize,
		},
	}
	if haveInit {
		progs = append(progs, Prog{
			Type: PTLoad, Flags: PFR | PFX,
			Off: initOff, Vaddr: initAddr, Paddr: initAddr,
			Filesz: uint64(len(spec.Init)), Memsz: uint64(len(spec.Init)),
			Align: PageSize,
		})
	}
	progs = append(progs,
		Prog{
			Type: PTLoad, Flags: PFR | PFW,
			Off: dataOff, Vaddr: dataAddr, Paddr: dataAddr,
			Filesz: uint64(len(spec.Data)),
			Memsz:  uint64(len(spec.Data)) + spec.BSSSize,
			Align:  PageSize,
		},
		Prog{Type: PTGnuStack, Flags: PFR | PFW, Align: 16})

	entry := textAddr + spec.EntryOff
	if spec.Shared {
		entry = 0
	}
	h := Header{
		Type:     fileType,
		Machine:  MachineX86_64,
		Entry:    entry,
		PhOff:    ehdrSize,
		ShOff:    shOff,
		PhNum:    uint16(len(progs)),
		ShNum:    uint16(shNum),
		ShStrNdx: uint16(shNum - 1),
	}
	writeEhdr(out, &h)
	for i := range progs {
		writePhdr(out[ehdrSize+uint64(i)*phdrSize:], &progs[i])
	}
	copy(out[textOff:], spec.Text)
	if haveInit {
		copy(out[initOff:], spec.Init)
	}
	copy(out[dataOff:], spec.Data)
	if haveSyms {
		nameOff := uint32(1)
		for i := range spec.Symbols {
			writeSym(out[symOff+uint64(1+i)*symSize:], nameOff, &spec.Symbols[i])
			nameOff += uint32(len(spec.Symbols[i].Name)) + 1
		}
		copy(out[symStrOff:], symStrs)
	}
	copy(out[strtabOff:], strtab)

	sections := []Section{
		{}, // SHT_NULL
		{
			NameOff: nameText, Type: SHTProgbits,
			Flags: SHFAlloc | SHFExecinstr,
			Addr:  textAddr, Off: textOff, Size: uint64(len(spec.Text)),
			Addralign: 16,
		},
	}
	if haveInit {
		sections = append(sections, Section{
			NameOff: nameInit, Type: SHTProgbits,
			Flags: SHFAlloc | SHFExecinstr,
			Addr:  initAddr, Off: initOff, Size: uint64(len(spec.Init)),
			Addralign: 16,
		})
	}
	sections = append(sections,
		Section{
			NameOff: nameData, Type: SHTProgbits,
			Flags: SHFAlloc | SHFWrite,
			Addr:  dataAddr, Off: dataOff, Size: uint64(len(spec.Data)),
			Addralign: 8,
		},
		Section{
			NameOff: nameBSS, Type: SHTNobits,
			Flags: SHFAlloc | SHFWrite,
			Addr:  dataAddr + uint64(len(spec.Data)),
			Off:   dataEnd, Size: spec.BSSSize,
			Addralign: 32,
		})
	if haveSyms {
		sections = append(sections,
			Section{
				NameOff: nameSymtab, Type: SHTSymtab,
				Off: symOff, Size: symSize64,
				// Link names the associated string table: the .strtab
				// section right after this one.
				Link: uint32(len(sections)) + 1, Info: 1, Entsize: symSize,
				Addralign: 8,
			},
			Section{
				NameOff: nameStrtab, Type: SHTStrtab,
				Off: symStrOff, Size: uint64(len(symStrs)),
				Addralign: 1,
			})
	}
	sections = append(sections, Section{
		NameOff: nameShstr, Type: SHTStrtab,
		Off: strtabOff, Size: uint64(len(strtab)),
		Addralign: 1,
	})
	for i := range sections {
		writeShdr(out[shOff+uint64(i)*shdrSize:], &sections[i])
	}
	return out, nil
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// Trailer marks data appended to a rewritten binary. The rewriter
// appends new content strictly at end-of-file (never moving existing
// bytes) and finishes with a 24-byte trailer so the loader can locate
// the appended region.
const trailerMagic = "E9PGLD64"

// Segments is a rewritten file as the ordered pieces it is written
// from: the input up to the text, the patched text, the input after it,
// zeros up to the next page boundary, the loader blob and the locating
// trailer. Only the trailer is new memory; the rest alias the caller's
// slices, so the input may be a read-only mmap view and nothing the
// size of the file is built in order to write it.
type Segments [6][]byte

// zeroPage backs the page-pad segment; never written.
var zeroPage [PageSize]byte

// Layout is the one place that lays a rewritten file out. code overlays
// file at textOff; the caller guarantees textOff+len(code) lies inside
// the file (the parser's TextRange already validated it). The blob goes
// at the next page boundary past the file, followed by the trailer.
func Layout(file []byte, textOff uint64, code, blob []byte) Segments {
	off := alignUp(uint64(len(file)), PageSize)
	tr := make([]byte, 24)
	copy(tr, trailerMagic)
	le.PutUint64(tr[8:], off)
	le.PutUint64(tr[16:], uint64(len(blob)))
	return Segments{
		file[:textOff],
		code,
		file[textOff+uint64(len(code)):],
		zeroPage[:off-uint64(len(file))],
		blob,
		tr,
	}
}

// Size is the length of the file the segments make up.
func (s Segments) Size() int {
	n := 0
	for _, seg := range s {
		n += len(seg)
	}
	return n
}

// WriteTo writes the segments in order, stopping at the first error.
func (s Segments) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, seg := range s {
		m, err := w.Write(seg)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Compose is the in-memory form of Layout: the segments concatenated in
// a single allocation of exactly the output's size. It produces the
// same bytes as mutating file's text section in place (patchBytes) and
// then appending blob, without ever writing to file. With textOff 0 and
// no code it only appends the blob.
func Compose(file []byte, textOff uint64, code, blob []byte) []byte {
	s := Layout(file, textOff, code, blob)
	out := make([]byte, 0, s.Size())
	for _, seg := range s {
		out = append(out, seg...)
	}
	return out
}

// AppendedBlob extracts the blob Layout attached, if present.
func AppendedBlob(file []byte) ([]byte, bool) {
	if len(file) < 24 {
		return nil, false
	}
	tr := file[len(file)-24:]
	if string(tr[:8]) != trailerMagic {
		return nil, false
	}
	off := le.Uint64(tr[8:])
	size := le.Uint64(tr[16:])
	if off+size+24 != uint64(len(file)) {
		return nil, false
	}
	return file[off : off+size], true
}
