// Command gen regenerates the hostile-ELF corpus in testdata/hostile.
//
// Each corpus file is a deterministic mutation of one small valid
// binary, targeting a specific parser or pipeline assumption: header
// truncation, offset/size fields near 2^64 that wrap naive bounds
// arithmetic, segment tables that overrun the file, degenerate or
// unloaded .text, and plain garbage. The rewriter must answer every
// one with a classified error (malformed / unsupported / resource
// limit) — never a panic, never ErrInternal. Two variants are
// well-formed ELFs whose .text is hostile to instruction recovery
// instead (workload.NopSled, workload.BackwardLadder): they must
// rewrite, in every disassembly mode, in time linear in their size.
// One is the valid binary rewritten once: a rewritten input is refused
// as unsupported, since rewriting it again would drop the first
// round's trampoline pages. The corpus is checked in;
// rerun this only when the layout of the seed binary changes:
//
//	go run ./testdata/hostile/gen
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"e9patch"
	"e9patch/internal/elf64"
	"e9patch/internal/workload"
)

var le = binary.LittleEndian

// ELF64 field offsets (all verified against elf64's writer):
const (
	ehdrSize = 64
	phdrSize = 56
	shdrSize = 64

	ePhOff    = 32 // e_phoff, 8 bytes
	eShOff    = 40 // e_shoff, 8 bytes
	ePhNum    = 56 // e_phnum, 2 bytes
	eShNum    = 60 // e_shnum, 2 bytes
	eShStrNdx = 62 // e_shstrndx, 2 bytes

	pType   = 0  // p_type, 4 bytes
	pOffset = 8  // p_offset, 8 bytes
	pVaddr  = 16 // p_vaddr, 8 bytes
	pFilesz = 32 // p_filesz, 8 bytes
	pMemsz  = 40 // p_memsz, 8 bytes

	shOffset = 24 // sh_offset, 8 bytes
	shSize   = 32 // sh_size, 8 bytes
)

// hostileTextBytes sizes the hostile-text variants: at 32 KB the
// pass-until-stable superset refinement took 20 s on the sled.
const hostileTextBytes = 32 << 10

// seedText is a small counting loop with a conditional branch, so the
// valid control binary gives the jcc selector something to patch:
//
//	xor eax, eax
//	add eax, 1
//	cmp eax, 0x100
//	jne -10        ; back to the add
//	ret
var seedText = []byte{
	0x31, 0xC0,
	0x83, 0xC0, 0x01,
	0x3D, 0x00, 0x01, 0x00, 0x00,
	0x75, 0xF6,
	0xC3,
}

func main() {
	dir := flag.String("o", "testdata/hostile", "output directory")
	flag.Parse()

	valid := withText(seedText)
	shOff := le.Uint64(valid[eShOff:])
	// Section table: [0] SHT_NULL, [1] .text, [4] .shstrtab.
	textShdr := shOff + 1*shdrSize
	strShdr := shOff + 4*shdrSize
	phdr0 := uint64(ehdrSize) // first PT_LOAD (the RX text segment)

	rewritten, err := e9patch.Rewrite(valid, e9patch.Config{Select: e9patch.SelectJumps})
	if err != nil {
		log.Fatal(err)
	}

	// Deterministic non-ELF bytes for the garbage variant.
	garbage := make([]byte, 128)
	for i := range garbage {
		garbage[i] = byte(i*37 + 13)
	}

	variants := []struct {
		name string
		data []byte
	}{
		// The unmodified seed: the control the tests rewrite successfully.
		{"valid.bin", valid},

		// Not an ELF at all.
		{"garbage-header.bin", garbage},
		{"short-magic.bin", []byte("\x7fELF")},

		// Truncations at structurally interesting boundaries.
		{"truncated-ehdr.bin", valid[:40]},
		{"truncated-phdr.bin", valid[:ehdrSize+phdrSize/2]},
		{"mid-truncate.bin", valid[:len(valid)/2]},

		// Header table offsets/counts near 2^64: naive off+size bounds
		// checks wrap and index past the buffer.
		{"phoff-overflow.bin", put64(valid, ePhOff, 0xFFFFFFFFFFFFFFF0)},
		{"phnum-huge.bin", put16(valid, ePhNum, 0xFFFF)},
		{"shoff-overflow.bin", put64(valid, eShOff, 0xFFFFFFFFFFFFFFF0)},
		{"shnum-huge.bin", put16(valid, eShNum, 0xFFFF)},
		{"shstrndx-oob.bin", put16(valid, eShStrNdx, 0xFFF0)},

		// Section records pointing outside the file.
		{"shstr-overflow.bin", put64(valid, strShdr+shOffset, 1<<60)},
		{"text-off-overflow.bin", put64(valid, textShdr+shOffset, 0xFFFFFFFFFFFFFFF0)},
		{"text-size-overflow.bin", put64(valid, textShdr+shSize, 0xFFFFFFFFFFFFFFF0)},
		{"degenerate-text.bin", put64(valid, textShdr+shSize, 0)},

		// Program-header lies about the text segment.
		{"memsz-wrap.bin", put64(valid, phdr0+pVaddr, 0xFFFFFFFFFFFFF000)},
		{"filesz-overrun.bin", put64(valid, phdr0+pFilesz, uint64(len(valid))+0x1000)},
		{"memsz-lt-filesz.bin", put64(valid, phdr0+pMemsz, 1)},
		{"segment-off-overflow.bin", put64(valid, phdr0+pOffset, 0xFFFFFFFFFFFFFFF0)},
		{"text-not-loaded.bin", put32(valid, phdr0+pType, 0)}, // PT_LOAD → PT_NULL

		// A valid output of the rewriter, its appended table included.
		{"already-rewritten.bin", rewritten.Output},

		// Valid containers, recovery-hostile text.
		{"recover-nop-sled.bin", withText(workload.NopSled(hostileTextBytes))},
		{"recover-backward-ladder.bin", withText(workload.BackwardLadder(hostileTextBytes))},
	}

	for _, v := range variants {
		path := filepath.Join(*dir, v.name)
		if err := os.WriteFile(path, v.data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(v.data))
	}
}

// withText builds the seed binary's layout around another .text.
func withText(text []byte) []byte {
	bin, err := elf64.Build(elf64.BuildSpec{Text: text, Data: make([]byte, 32), BSSSize: 64})
	if err != nil {
		log.Fatal(err)
	}
	return bin
}

// put64/put32/put16 return a copy of b with a little-endian value
// patched in at off, leaving the seed binary untouched.
func put64(b []byte, off, v uint64) []byte {
	c := append([]byte(nil), b...)
	le.PutUint64(c[off:], v)
	return c
}

func put32(b []byte, off uint64, v uint32) []byte {
	c := append([]byte(nil), b...)
	le.PutUint32(c[off:], v)
	return c
}

func put16(b []byte, off uint64, v uint16) []byte {
	c := append([]byte(nil), b...)
	le.PutUint16(c[off:], v)
	return c
}
