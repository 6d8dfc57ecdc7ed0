package group

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestFigure3Example(t *testing.T) {
	// Five trampolines over three virtual pages, non-overlapping
	// relative to page base → one merged physical page (Figure 3).
	chunks := []Chunk{
		{Addr: 0x10000 + 0x100, Data: []byte("t1t1")},
		{Addr: 0x10000 + 0x800, Data: []byte("t2t2")},
		{Addr: 0x11000 + 0x400, Data: []byte("t3t3")},
		{Addr: 0x12000 + 0x000, Data: []byte("t4")},
		{Addr: 0x12000 + 0xC00, Data: []byte("t5t5t5")},
	}
	res, err := Build(chunks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VirtBlocks != 3 {
		t.Errorf("virt blocks = %d", res.Stats.VirtBlocks)
	}
	if res.Stats.PhysBlocks != 1 {
		t.Errorf("phys blocks = %d, want 1 (two-thirds saved)", res.Stats.PhysBlocks)
	}
	if res.Stats.Mappings != 3 {
		t.Errorf("mappings = %d", res.Stats.Mappings)
	}
	// Reconstruct each virtual page and verify every chunk is intact.
	verifyChunks(t, res, chunks)
}

func TestConflictingOffsetsSplit(t *testing.T) {
	// Two pages with trampolines at the same offset cannot merge.
	chunks := []Chunk{
		{Addr: 0x10000 + 0x100, Data: []byte("aaaa")},
		{Addr: 0x11000 + 0x100, Data: []byte("bbbb")},
	}
	res, err := Build(chunks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PhysBlocks != 2 {
		t.Errorf("phys blocks = %d, want 2", res.Stats.PhysBlocks)
	}
	verifyChunks(t, res, chunks)
}

func TestBlockSpanningChunk(t *testing.T) {
	// A trampoline crossing a page boundary becomes two
	// mini-trampolines in two blocks.
	data := bytes.Repeat([]byte{0xAB}, 64)
	chunks := []Chunk{{Addr: 0x10000 + 0xFE0, Data: data}}
	res, err := Build(chunks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VirtBlocks != 2 {
		t.Errorf("virt blocks = %d, want 2", res.Stats.VirtBlocks)
	}
	verifyChunks(t, res, chunks)
}

func TestGranularityReducesMappings(t *testing.T) {
	// Trampolines spread one per page over 256 pages: M=1 gives 256
	// mappings; M=16 gives 16; physical bytes grow accordingly.
	var chunks []Chunk
	for i := 0; i < 256; i++ {
		// Distinct offsets so everything could merge at M=1.
		chunks = append(chunks, Chunk{
			Addr: 0x100000 + uint64(i)*PageSize + uint64(i*13),
			Data: []byte{1, 2, 3},
		})
	}
	res1, err := Build(chunks, 1)
	if err != nil {
		t.Fatal(err)
	}
	res16, err := Build(chunks, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Mappings != 256 {
		t.Errorf("M=1 mappings = %d", res1.Stats.Mappings)
	}
	if res16.Stats.Mappings != 16 {
		t.Errorf("M=16 mappings = %d", res16.Stats.Mappings)
	}
	if res1.Stats.PhysBlocks != 1 {
		t.Errorf("M=1 phys blocks = %d, want full merge", res1.Stats.PhysBlocks)
	}
	verifyChunks(t, res1, chunks)
	verifyChunks(t, res16, chunks)
}

func TestOverlapRejected(t *testing.T) {
	chunks := []Chunk{
		{Addr: 0x10000, Data: []byte{1, 2, 3, 4}},
		{Addr: 0x10002, Data: []byte{9}},
	}
	if _, err := Build(chunks, 1); err == nil {
		t.Fatal("overlapping chunks accepted")
	}
}

func TestBadGranularity(t *testing.T) {
	if _, err := Build(nil, 0); err == nil {
		t.Fatal("granularity 0 accepted")
	}
}

// verifyChunks reconstructs the virtual address space from the grouped
// result and checks all chunk bytes are present at their addresses.
func verifyChunks(t *testing.T, res *Result, chunks []Chunk) {
	t.Helper()
	mem := make(map[uint64]byte)
	for _, mp := range res.Mappings {
		blk := res.Blocks[mp.Phys]
		for i, b := range blk {
			mem[mp.Vaddr+uint64(i)] = b
		}
	}
	for _, c := range chunks {
		for i, b := range c.Data {
			if mem[c.Addr+uint64(i)] != b {
				t.Fatalf("byte at %#x = %#x, want %#x", c.Addr+uint64(i), mem[c.Addr+uint64(i)], b)
			}
		}
	}
}

// TestGroupingProperty: random disjoint chunks at any granularity must
// reconstruct exactly, and grouped blocks never exceed naive blocks.
func TestGroupingProperty(t *testing.T) {
	f := func(seed int64, granExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		gran := 1 << (granExp % 7) // 1..64
		var chunks []Chunk
		next := uint64(0x200000)
		for i := 0; i < 100; i++ {
			next += uint64(rng.Intn(0x3000) + 1)
			n := rng.Intn(48) + 1
			data := make([]byte, n)
			rng.Read(data)
			chunks = append(chunks, Chunk{Addr: next, Data: data})
			next += uint64(n)
		}
		res, err := Build(chunks, gran)
		if err != nil {
			t.Logf("seed %d gran %d: %v", seed, gran, err)
			return false
		}
		if res.Stats.PhysBlocks > res.Stats.VirtBlocks {
			return false
		}
		if res.Stats.Mappings != res.Stats.VirtBlocks {
			return false
		}
		verifyChunks(t, res, chunks)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// checkAgainstReference holds Build to the reference on one input:
// the same blocks, mappings and stats, or an error from both.
func checkAgainstReference(t *testing.T, name string, chunks []Chunk, gran int) {
	t.Helper()
	want, werr := buildReference(chunks, gran)
	got, gerr := Build(chunks, gran)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s gran %d: Build err %v, reference err %v", name, gran, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s gran %d: stats %+v, reference %+v", name, gran, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Mappings, want.Mappings) {
		t.Fatalf("%s gran %d: mappings differ from the reference", name, gran)
	}
	if !reflect.DeepEqual(got.Blocks, want.Blocks) {
		t.Fatalf("%s gran %d: blocks differ from the reference", name, gran)
	}
}

// seededChunks lays n disjoint chunks of 1..maxLen bytes upward from
// base with gaps of up to maxGap bytes, so they straddle block
// boundaries wherever those fall.
func seededChunks(rng *rand.Rand, base uint64, n, maxGap, maxLen int) []Chunk {
	chunks := make([]Chunk, 0, n)
	next := base
	for i := 0; i < n; i++ {
		next += uint64(rng.Intn(maxGap + 1))
		data := make([]byte, rng.Intn(maxLen)+1)
		rng.Read(data)
		chunks = append(chunks, Chunk{Addr: next, Data: data})
		next += uint64(len(data))
	}
	return chunks
}

// TestBuildMatchesReference holds the rewritten Build equal to the old
// one, output for output, on the inputs TestGroupingProperty never
// generates: any input order, chunks across one and several block
// boundaries and ending exactly on one, empty chunks, more groups than
// the probe window, and an address that wraps past the top of the
// 64-bit space.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	filled := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	inputs := map[string][]Chunk{
		"empty":     nil,
		"scattered": seededChunks(rng, 0x200000, 400, 0x3000, 48),
		"dense":     seededChunks(rng, 0x7f0000000000, 3000, 40, 24),
		"straddling": {
			{Addr: 0x10000 + 0xFF0, Data: filled(32, 1)},       // one boundary
			{Addr: 0x20000 + 0xF00, Data: filled(0x2200, 2)},   // several boundaries
			{Addr: 0x30000 + 0xF80, Data: filled(0x80, 3)},     // ends exactly on a block edge
			{Addr: 0x31000, Data: filled(0x1000, 4)},           // exactly one block
			{Addr: 0x40000 + 0x3F, Data: filled(2, 5)},         // crosses a bitmap word
			{Addr: 0x40000 + 0x41, Data: filled(0x7F, 6)},      // touches the previous chunk
			{Addr: 0x50000, Data: nil},                         // empty, alone in its block
			{Addr: 0x10000 + 0xFF8, Data: []byte{}},            // empty, inside another chunk
			{Addr: 0x60000 + 0xFFF, Data: filled(1, 7)},        // last byte of a block
			{Addr: 0x61000, Data: filled(1, 8)},                // first byte of the next
			{Addr: 0xFFFF_FFFF_FFFF_F000, Data: filled(16, 9)}, // top block of the space
		},
		// Link-relative addresses under a PIE bias wrap: this chunk's
		// last 8 bytes land at address 0.
		"wrapping": {
			{Addr: 0x1000, Data: filled(4, 1)},
			{Addr: ^uint64(0) - 7, Data: filled(16, 2)},
			{Addr: 8, Data: filled(8, 3)},
		},
	}
	// Every block claims the same offsets, so none can share a group:
	// more groups than maxProbe, and the window's lower edge is crossed.
	// A few late blocks fit only groups that have left the window.
	var crowded []Chunk
	for i := 0; i < 3*maxProbe; i++ {
		crowded = append(crowded, Chunk{Addr: 0x100000 + uint64(i)*64*PageSize, Data: filled(64, byte(i))})
	}
	for i := 0; i < 8; i++ {
		crowded = append(crowded, Chunk{Addr: 0x100000 + uint64(3*maxProbe+i)*64*PageSize + 0x800, Data: filled(8, 0xEE)})
	}
	inputs["crowded"] = crowded

	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names) // the shuffles below draw from one seeded stream
	for _, name := range names {
		chunks := inputs[name]
		desc := make([]Chunk, len(chunks))
		for i, c := range chunks {
			desc[len(chunks)-1-i] = c
		}
		shuffled := append([]Chunk(nil), chunks...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, o := range []struct {
			order  string
			chunks []Chunk
		}{{"given", chunks}, {"descending", desc}, {"shuffled", shuffled}} {
			for _, gran := range []int{1, 3, 4, 64} {
				checkAgainstReference(t, name+"/"+o.order, o.chunks, gran)
			}
		}
	}
	if res, _ := Build(crowded, 1); res.Stats.PhysBlocks <= maxProbe {
		t.Errorf("crowded input made %d groups, want > maxProbe (%d)", res.Stats.PhysBlocks, maxProbe)
	}
}

// TestOverlapRejectedAnyOrder: overlapping chunks are an error however
// they arrive, including a pair that overlaps only across a block
// boundary and one that overlaps only through the 64-bit wrap.
func TestOverlapRejectedAnyOrder(t *testing.T) {
	for name, pair := range map[string][2]Chunk{
		"inside a block":  {{Addr: 0x10000, Data: make([]byte, 4)}, {Addr: 0x10002, Data: make([]byte, 1)}},
		"same address":    {{Addr: 0x10000, Data: make([]byte, 4)}, {Addr: 0x10000, Data: make([]byte, 4)}},
		"across a block":  {{Addr: 0x10FF0, Data: make([]byte, 0x20)}, {Addr: 0x11008, Data: make([]byte, 4)}},
		"contained":       {{Addr: 0x10000, Data: make([]byte, 0x3000)}, {Addr: 0x11800, Data: make([]byte, 1)}},
		"through the top": {{Addr: ^uint64(0) - 7, Data: make([]byte, 16)}, {Addr: 4, Data: make([]byte, 8)}},
	} {
		far := Chunk{Addr: 0x900000, Data: make([]byte, 8)}
		for i, chunks := range [][]Chunk{
			{pair[0], pair[1], far},
			{pair[1], far, pair[0]},
			{far, pair[1], pair[0]},
		} {
			for _, gran := range []int{1, 4, 64} {
				if _, err := Build(chunks, gran); err == nil {
					t.Errorf("%s, order %d, gran %d: overlap accepted", name, i, gran)
				}
				if _, err := buildReference(chunks, gran); err == nil {
					t.Errorf("%s, order %d, gran %d: the reference accepts it", name, i, gran)
				}
			}
		}
	}
	// Touching is not overlapping.
	touching := []Chunk{{Addr: 0x10FF0, Data: make([]byte, 0x10)}, {Addr: 0x11000, Data: make([]byte, 4)}}
	if _, err := Build(touching, 1); err != nil {
		t.Errorf("touching chunks rejected: %v", err)
	}
}

// refPiece is one chunk fragment that landed in a virtual block: an
// offset plus a view into the caller's chunk data. Blocks stay sparse —
// a browser-class rewrite occupies hundreds of thousands of virtual
// blocks, and materializing a full blockSize image per virtual block
// (rather than only per merged physical block, below) used to dominate
// the emit phase's memory.
type refPiece struct {
	off  uint64
	data []byte
}

type refBlock struct {
	vaddr  uint64 // block-aligned
	bitmap []uint64
	pieces []refPiece
}

// buildReference is Build as it stood before the sort-based rewrite,
// kept verbatim as the oracle: per-block bitmaps in a map of pointers,
// set one bit at a time and compared whole against each group.
func buildReference(chunks []Chunk, granularity int) (*Result, error) {
	if granularity < 1 {
		return nil, fmt.Errorf("group: granularity %d < 1", granularity)
	}
	blockSize := uint64(granularity) * PageSize

	// Slice chunks into per-block pieces; images are deferred to the
	// merged physical blocks.
	blocks := make(map[uint64]*refBlock)
	var payload uint64
	for _, c := range chunks {
		payload += uint64(len(c.Data))
		addr := c.Addr
		data := c.Data
		for len(data) > 0 {
			blockAddr := addr / blockSize * blockSize
			off := addr - blockAddr
			n := blockSize - off
			if n > uint64(len(data)) {
				n = uint64(len(data))
			}
			b := blocks[blockAddr]
			if b == nil {
				b = &refBlock{
					vaddr:  blockAddr,
					bitmap: make([]uint64, (blockSize+63)/64),
				}
				blocks[blockAddr] = b
			}
			for i := uint64(0); i < n; i++ {
				w := (off + i) / 64
				bit := (off + i) % 64
				if b.bitmap[w]&(1<<bit) != 0 {
					return nil, fmt.Errorf("group: overlapping chunks at %#x", addr+i)
				}
				b.bitmap[w] |= 1 << bit
			}
			b.pieces = append(b.pieces, refPiece{off: off, data: data[:n]})
			data = data[n:]
			addr += n
		}
	}

	// Deterministic order: by virtual address.
	ordered := make([]*refBlock, 0, len(blocks))
	for _, b := range blocks {
		ordered = append(ordered, b)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].vaddr < ordered[j].vaddr })

	// Greedy partitioning: place each block into the first compatible
	// group (bounded probing). Only groups — the merged physical blocks —
	// carry a materialized image; virtual blocks write their pieces into
	// it on placement.
	type grp struct {
		bitmap  []uint64
		data    []byte
		members []uint64 // vaddrs
	}
	place := func(g *grp, b *refBlock) {
		for _, p := range b.pieces {
			copy(g.data[p.off:], p.data)
		}
		for i, w := range b.bitmap {
			g.bitmap[i] |= w
		}
		g.members = append(g.members, b.vaddr)
	}
	// Probe the most recently opened groups: older groups fill up, so
	// scanning from the front would degenerate into one group per
	// block once the probe budget's worth of groups saturates.
	var groups []*grp
	for _, b := range ordered {
		placed := false
		lo := len(groups) - maxProbe
		if lo < 0 {
			lo = 0
		}
		for gi := len(groups) - 1; gi >= lo; gi-- {
			g := groups[gi]
			conflict := false
			for i, w := range b.bitmap {
				if w&g.bitmap[i] != 0 {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			place(g, b)
			placed = true
			break
		}
		if !placed {
			g := &grp{
				bitmap:  make([]uint64, len(b.bitmap)),
				data:    make([]byte, blockSize),
				members: make([]uint64, 0, 1),
			}
			place(g, b)
			groups = append(groups, g)
		}
	}

	res := &Result{
		Stats: Stats{
			TrampolineBytes: payload,
			VirtBlocks:      len(ordered),
			PhysBlocks:      len(groups),
			BlockSize:       blockSize,
			Mappings:        len(ordered),
		},
	}
	for gi, g := range groups {
		res.Blocks = append(res.Blocks, g.data)
		for _, v := range g.members {
			res.Mappings = append(res.Mappings, Mapping{Vaddr: v, Phys: gi})
		}
	}
	sort.Slice(res.Mappings, func(i, j int) bool { return res.Mappings[i].Vaddr < res.Mappings[j].Vaddr })
	return res, nil
}
