// Package loader is the codec of the table a rewritten binary carries.
//
// E9Patch appends trampoline pages to the output file and injects a
// small loader that mmaps them into place before jumping to the real
// entry point (§5.1). In this reproduction the loader is data-driven:
// the appended blob serialises the mmap table, the merged physical
// blocks, and the B0 SIGTRAP dispatch table. This package encodes and
// decodes that blob and nothing else; e9patch.Load replays it into an
// emulated address space, enforcing MapCountLimit as a real kernel
// enforces vm.max_map_count.
package loader

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"e9patch/internal/group"
)

// MapCountLimit mirrors the Linux vm.max_map_count default (§4): the
// most trampoline mappings e9patch.Load replays.
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

// Decode parses blob bytes. Every count and length in data is checked
// against the bytes left before it is used, so a hostile table is
// refused with an error: it never panics or spins, and allocates in
// proportion to len(data).
func Decode(data []byte) (*Blob, error) {
	r := reader{data: data}
	if r.u32() != blobMagic || r.err != nil {
		return nil, errors.New("loader: bad blob magic")
	}
	b := &Blob{SigTab: make(map[uint64]uint64)}
	b.Granularity = r.u32()
	b.BlockSize = r.u64()
	b.Entry = r.u64()
	if r.err == nil && b.BlockSize == 0 {
		return nil, errors.New("loader: zero block size")
	}
	if n := r.count(12); n > 0 {
		b.Mappings = make([]group.Mapping, n)
		for i := range b.Mappings {
			b.Mappings[i] = group.Mapping{Vaddr: r.u64(), Phys: int(r.u32())}
		}
	}
	if n := r.count(b.BlockSize); n > 0 {
		b.Blocks = make([][]byte, n)
		for i := range b.Blocks {
			b.Blocks[i] = r.bytes(b.BlockSize)
		}
	}
	for n := r.count(16); n > 0; n-- {
		k := r.u64()
		b.SigTab[k] = r.u64()
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("loader: %d trailing bytes after the dispatch table", len(r.data))
	}
	for _, mp := range b.Mappings {
		if mp.Phys >= len(b.Blocks) {
			return nil, fmt.Errorf("loader: mapping references block %d of %d", mp.Phys, len(b.Blocks))
		}
	}
	return b, nil
}

// reader consumes a blob front to back. The first read past the end
// sets err, and every read after it returns zero values.
type reader struct {
	data []byte
	err  error
}

// bytes consumes the next n bytes.
func (r *reader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)) {
		r.err = errors.New("loader: truncated blob")
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

func (r *reader) u32() uint32 {
	if b := r.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a table's entry count and checks that that many entries
// of size bytes each fit in the bytes left (size is never zero).
func (r *reader) count(size uint64) uint32 {
	n := r.u32()
	if r.err == nil && uint64(n) > uint64(len(r.data))/size {
		r.err = errors.New("loader: truncated blob")
	}
	if r.err != nil {
		return 0
	}
	return n
}
