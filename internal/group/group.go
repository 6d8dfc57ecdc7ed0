// Package group implements physical page grouping (§4): trampolines
// are scattered across sparse virtual pages because punning constrains
// their addresses; merging physical blocks whose trampolines occupy
// disjoint block offsets — and mapping each merged block at many
// virtual addresses — recovers the wasted physical memory and file
// size.
//
// The virtual address space is divided into blocks of M consecutive
// pages (the granularity knob): M=1 is the most aggressive merge; large
// M trades physical memory for fewer mappings (the Linux
// vm.max_map_count limit).
package group

import "fmt"

// PageSize is the virtual page size.
const PageSize = 0x1000

// Chunk is a run of bytes to be materialised at a virtual address
// (one trampoline, or a piece of one that crosses a block boundary).
type Chunk struct {
	Addr uint64
	Data []byte
}

// Mapping maps one merged physical block into the virtual address
// space (one simulated mmap call).
type Mapping struct {
	// Vaddr is the block-aligned virtual address.
	Vaddr uint64
	// Phys indexes Result.Blocks.
	Phys int
}

// Stats summarises the optimisation's effect.
type Stats struct {
	// TrampolineBytes is the payload size.
	TrampolineBytes uint64
	// VirtBlocks is the number of occupied virtual blocks — also the
	// number of mappings, and the number of physical blocks a naïve
	// one-to-one scheme would emit.
	VirtBlocks int
	// PhysBlocks is the number of merged physical blocks emitted.
	PhysBlocks int
	// BlockSize is M * PageSize.
	BlockSize uint64
	// Mappings equals VirtBlocks (one mmap per occupied block).
	Mappings int
}

// PhysBytes returns the grouped physical payload size.
func (s Stats) PhysBytes() uint64 { return uint64(s.PhysBlocks) * s.BlockSize }

// Result is the grouped physical image.
type Result struct {
	// Blocks holds the merged physical blocks, each BlockSize bytes.
	Blocks [][]byte
	// Mappings lists the virtual placements of each block.
	Mappings []Mapping
	Stats    Stats
}

// maxProbe bounds the number of candidate groups the greedy partitioner
// examines per block; the paper notes a simple greedy algorithm gives
// reasonable results for reasonable performance.
const maxProbe = 128

// wordMask is the part of one 64-byte-offset word of a block's
// occupancy that the block's pieces cover.
type wordMask struct {
	word int
	bits uint64
}

// appendMasks adds the occupancy of [off, off+n) to masks, which is in
// ascending word order; a piece that shares its first word with the
// previous piece's last is merged into it.
func appendMasks(masks []wordMask, off, n uint64) []wordMask {
	last := off + n - 1
	for w := off / 64; w <= last/64; w++ {
		bits := ^uint64(0)
		if w == off/64 {
			bits &= ^uint64(0) << (off % 64)
		}
		if w == last/64 {
			bits &= ^uint64(0) >> (63 - last%64)
		}
		if k := len(masks) - 1; k >= 0 && masks[k].word == int(w) {
			masks[k].bits |= bits
		} else {
			masks = append(masks, wordMask{int(w), bits})
		}
	}
	return masks
}

// sortByAddr returns the pieces in ascending address order: a
// byte-wise radix sort, least significant byte first, of pointer-free
// (address, index) keys, then one gather. Trampoline addresses share
// their high bytes, and a byte all keys share is skipped, so this is
// four or five linear passes; a comparison sort of the same keys
// through a comparator function measured three times the cost.
func sortByAddr(pieces []Chunk) []Chunk {
	type key struct {
		addr uint64
		idx  int
	}
	keys, tmp := make([]key, len(pieces)), make([]key, len(pieces))
	var counts [8][256]int
	for i := range pieces {
		a := pieces[i].Addr
		keys[i] = key{a, i}
		for b := range counts {
			counts[b][byte(a>>(8*b))]++
		}
	}
	for b := range counts {
		c := &counts[b]
		if c[byte(keys[0].addr>>(8*b))] == len(keys) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, k := range keys {
			d := byte(k.addr >> (8 * b))
			tmp[c[d]] = k
			c[d]++
		}
		keys, tmp = tmp, keys
	}
	out := make([]Chunk, len(pieces))
	for i, k := range keys {
		out[i] = pieces[k.idx]
	}
	return out
}

// Build groups the chunks with the given granularity (pages per
// block). Chunks must be non-overlapping in virtual space.
func Build(chunks []Chunk, granularity int) (*Result, error) {
	if granularity < 1 {
		return nil, fmt.Errorf("group: granularity %d < 1", granularity)
	}
	blockSize := uint64(granularity) * PageSize

	// Cut the chunks at block boundaries into pieces, each a view into
	// the caller's data that lies inside one virtual block, all in one
	// array. Blocks stay sparse: a browser-class rewrite occupies
	// hundreds of thousands of virtual blocks, and only the merged
	// physical blocks below get a blockSize image. An address may wrap
	// past the top of the 64-bit space (link-relative addresses under a
	// PIE bias do); the piece after the wrap starts at 0 like any other.
	pieces := make([]Chunk, 0, len(chunks)+len(chunks)/8+8)
	var payload uint64
	ordered := true
	for _, c := range chunks {
		payload += uint64(len(c.Data))
		addr, data := c.Addr, c.Data
		for len(data) > 0 {
			n := min(blockSize-addr%blockSize, uint64(len(data)))
			if k := len(pieces); k > 0 && addr < pieces[k-1].Addr {
				ordered = false
			}
			pieces = append(pieces, Chunk{Addr: addr, Data: data[:n]})
			data = data[n:]
			addr += n
		}
	}
	// Order the pieces by address, once. Then a block is a run of
	// neighbours, blocks come out in mapping order, and two pieces
	// overlap exactly when some piece reaches its successor. The
	// distance is taken by subtraction: Addr+len wraps to 0 for a piece
	// that ends at the top of the address space.
	if !ordered {
		pieces = sortByAddr(pieces)
	}
	virtBlocks := min(len(pieces), 1)
	for i := 1; i < len(pieces); i++ {
		if pieces[i].Addr-pieces[i-1].Addr < uint64(len(pieces[i-1].Data)) {
			return nil, fmt.Errorf("group: overlapping chunks at %#x", pieces[i].Addr)
		}
		if pieces[i].Addr/blockSize != pieces[i-1].Addr/blockSize {
			virtBlocks++
		}
	}

	// Greedy partitioning: place each block into the first compatible
	// group (bounded probing). Only groups — the merged physical blocks —
	// carry an occupancy bitmap and a materialized image; a virtual
	// block is tested against one by masking the few words its pieces
	// touch, and writes its pieces into it on placement.
	type grp struct {
		bitmap []uint64
		data   []byte
	}
	var groups []grp
	res := &Result{}
	if virtBlocks > 0 {
		res.Mappings = make([]Mapping, 0, virtBlocks)
	}
	var masks []wordMask
	for i := 0; i < len(pieces); {
		vaddr := pieces[i].Addr / blockSize * blockSize
		j := i
		masks = masks[:0]
		for ; j < len(pieces) && pieces[j].Addr-vaddr < blockSize; j++ {
			masks = appendMasks(masks, pieces[j].Addr-vaddr, uint64(len(pieces[j].Data)))
		}
		// Probe the most recently opened groups: older groups fill up, so
		// scanning from the front would degenerate into one group per
		// block once the probe budget's worth of groups saturates.
		gi, lo := len(groups)-1, max(len(groups)-maxProbe, 0)
	probe:
		for ; gi >= lo; gi-- {
			bitmap := groups[gi].bitmap
			for _, m := range masks {
				if bitmap[m.word]&m.bits != 0 {
					continue probe
				}
			}
			break
		}
		if gi < lo {
			gi = len(groups)
			groups = append(groups, grp{
				bitmap: make([]uint64, (blockSize+63)/64),
				data:   make([]byte, blockSize),
			})
		}
		g := &groups[gi]
		for _, m := range masks {
			g.bitmap[m.word] |= m.bits
		}
		for _, p := range pieces[i:j] {
			copy(g.data[p.Addr-vaddr:], p.Data)
		}
		res.Mappings = append(res.Mappings, Mapping{Vaddr: vaddr, Phys: gi})
		i = j
	}

	if len(groups) > 0 {
		res.Blocks = make([][]byte, len(groups))
	}
	for i, g := range groups {
		res.Blocks[i] = g.data
	}
	res.Stats = Stats{
		TrampolineBytes: payload,
		VirtBlocks:      virtBlocks,
		PhysBlocks:      len(groups),
		BlockSize:       blockSize,
		Mappings:        virtBlocks,
	}
	return res, nil
}
