// Package loader implements the patched binary's load-time machinery.
//
// E9Patch appends trampoline pages to the output file and injects a
// small loader that mmaps them into place before jumping to the real
// entry point (§5.1). In this reproduction the loader is data-driven:
// the appended blob serialises the mmap table, the merged physical
// blocks, and the B0 SIGTRAP dispatch table; BuildImage replays it into
// an emulated address space, enforcing the same vm.max_map_count limit
// a real kernel would.
package loader

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/group"
)

// MapCountLimit mirrors the Linux vm.max_map_count default (§4): the
// most trampoline mappings BuildImage replays.
const MapCountLimit = 65536

const blobMagic = 0xE9B10B64

// Blob is the parsed appended-data payload.
type Blob struct {
	// Granularity is the grouping granularity M (pages per block).
	Granularity uint32
	// BlockSize is M * page size.
	BlockSize uint64
	// Mappings is the mmap table (block vaddr -> physical block).
	Mappings []group.Mapping
	// Blocks holds the merged physical blocks.
	Blocks [][]byte
	// SigTab maps int3 addresses to trampoline addresses (B0).
	SigTab map[uint64]uint64
	// Entry is the original entry point.
	Entry uint64
}

// Encode serialises a grouping result plus metadata into blob bytes.
func Encode(res *group.Result, granularity int, sigTab map[uint64]uint64, entry uint64) []byte {
	size := 4 + 4 + 8 + 8 + 4 + 12*len(res.Mappings) + 4 + 4 + 16*len(sigTab)
	for _, b := range res.Blocks {
		size += len(b)
	}
	buf := make([]byte, 0, size)
	le := binary.LittleEndian
	u32 := func(v uint32) { buf = le.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = le.AppendUint64(buf, v) }

	u32(blobMagic)
	u32(uint32(granularity))
	u64(res.Stats.BlockSize)
	u64(entry)
	u32(uint32(len(res.Mappings)))
	for _, mp := range res.Mappings {
		u64(mp.Vaddr)
		u32(uint32(mp.Phys))
	}
	u32(uint32(len(res.Blocks)))
	for _, b := range res.Blocks {
		buf = append(buf, b...)
	}
	u32(uint32(len(sigTab)))
	// Deterministic order.
	keys := make([]uint64, 0, len(sigTab))
	for k := range sigTab {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		u64(k)
		u64(sigTab[k])
	}
	return buf
}

// Decode parses blob bytes.
func Decode(data []byte) (*Blob, error) {
	le := binary.LittleEndian
	pos := 0
	need := func(n int) error {
		if pos+n > len(data) {
			return errors.New("loader: truncated blob")
		}
		return nil
	}
	u32 := func() (uint32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := le.Uint32(data[pos:])
		pos += 4
		return v, nil
	}
	u64 := func() (uint64, error) {
		if err := need(8); err != nil {
			return 0, err
		}
		v := le.Uint64(data[pos:])
		pos += 8
		return v, nil
	}

	magic, err := u32()
	if err != nil || magic != blobMagic {
		return nil, errors.New("loader: bad blob magic")
	}
	b := &Blob{SigTab: make(map[uint64]uint64)}
	if b.Granularity, err = u32(); err != nil {
		return nil, err
	}
	if b.BlockSize, err = u64(); err != nil {
		return nil, err
	}
	if b.Entry, err = u64(); err != nil {
		return nil, err
	}
	nMap, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nMap; i++ {
		v, err := u64()
		if err != nil {
			return nil, err
		}
		p, err := u32()
		if err != nil {
			return nil, err
		}
		b.Mappings = append(b.Mappings, group.Mapping{Vaddr: v, Phys: int(p)})
	}
	nBlocks, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nBlocks; i++ {
		if err := need(int(b.BlockSize)); err != nil {
			return nil, err
		}
		b.Blocks = append(b.Blocks, data[pos:pos+int(b.BlockSize)])
		pos += int(b.BlockSize)
	}
	nSig, err := u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nSig; i++ {
		k, err := u64()
		if err != nil {
			return nil, err
		}
		v, err := u64()
		if err != nil {
			return nil, err
		}
		b.SigTab[k] = v
	}
	for _, mp := range b.Mappings {
		if mp.Phys >= len(b.Blocks) {
			return nil, fmt.Errorf("loader: mapping references block %d of %d", mp.Phys, len(b.Blocks))
		}
	}
	return b, nil
}

// PIEBase is the deterministic load bias applied to ET_DYN binaries
// (the address the Linux loader picks for PIE executables when ASLR is
// disabled; our simulated loader is deterministic by design).
const PIEBase uint64 = 0x5555_5555_4000

// Bias is the load bias of f: PIEBase for ET_DYN, zero for ET_EXEC.
// It is added to every file virtual address.
func Bias(f *elf64.File) uint64 {
	if f.IsPIE() {
		return PIEBase
	}
	return 0
}

// BuildImage loads a (possibly rewritten) ELF binary plus its appended
// blob into an emulated address space at its Bias, replaying the mmap
// table. It returns the entry point and installs the B0 dispatch table.
func BuildImage(m *emu.Machine, file []byte) (entry uint64, err error) {
	f, err := elf64.Parse(file)
	if err != nil {
		return 0, err
	}
	bias := Bias(f)
	entry = f.Header.Entry + bias

	// Replay the trampoline mmap table first. Blocks are whole
	// granules: any zero-filled portion that overlaps a loaded segment
	// is shadowed when the segments are copied afterwards (trampolines
	// themselves are never allocated inside segment pages, and Apply
	// refuses a plan that puts one there, so the ordering is equivalent
	// to the real loader's page-granular MAP_FIXED calls over
	// non-segment pages only).
	if blob, ok := elf64.AppendedBlob(file); ok {
		b, err := Decode(blob)
		if err != nil {
			return 0, err
		}
		if len(b.Mappings) > MapCountLimit {
			return 0, fmt.Errorf("loader: %d mappings exceed vm.max_map_count=%d (use a coarser granularity)",
				len(b.Mappings), MapCountLimit)
		}
		for _, mp := range b.Mappings {
			m.Mem.WriteBytes(mp.Vaddr+bias, b.Blocks[mp.Phys])
		}
		for addr, tramp := range b.SigTab {
			m.SigTab[addr+bias] = tramp + bias
		}
	}

	// Load PT_LOAD segments: file bytes then zero fill to memsz.
	for _, p := range f.Progs {
		if p.Type != elf64.PTLoad {
			continue
		}
		if p.Off+p.Filesz > uint64(len(file)) {
			return 0, fmt.Errorf("loader: segment beyond file end")
		}
		vaddr := p.Vaddr + bias
		m.Mem.WriteBytes(vaddr, file[p.Off:p.Off+p.Filesz])
		if p.Memsz > p.Filesz {
			m.Mem.Map(vaddr+p.Filesz, p.Memsz-p.Filesz)
		}
	}
	return entry, nil
}
