package emu

import (
	"fmt"
	"testing"
)

// TestCodeTrackerRange pins the tracker's range reject: it is exact at
// both edges of the tracked pages, a store that straddles a tracked and
// an untracked page still flushes, and a flush starts the range afresh.
func TestCodeTrackerRange(t *testing.T) {
	flushes := 0
	trk := newCodeTracker(func() { flushes++ })
	store := func(addr, size uint64) (probed, flushed bool) {
		p, f := trk.probes, flushes
		trk.invalidate(addr, size)
		return trk.probes != p, flushes != f
	}

	// Nothing tracked: every store is rejected on the compare.
	if probed, _ := store(0, 8); probed {
		t.Error("empty tracker consulted its map")
	}

	// Code in pages 4 and 6; page 5 is inside the range but untracked.
	trk.track(4*PageSize+10, 4*PageSize+20)
	trk.track(6*PageSize, 6*PageSize+1)
	for _, tc := range []struct {
		name           string
		addr, size     uint64
		probed, flushd bool
	}{
		{"last byte below the range", 4*PageSize - 1, 1, false, false},
		{"first byte above the range", 7 * PageSize, 8, false, false},
		{"empty store at the first tracked byte", 4 * PageSize, 0, false, false},
		{"untracked page inside the range", 5*PageSize + 8, 8, true, false},
	} {
		probed, flushed := store(tc.addr, tc.size)
		if probed != tc.probed || flushed != tc.flushd {
			t.Errorf("%s: probed=%v flushed=%v, want %v %v", tc.name, probed, flushed, tc.probed, tc.flushd)
		}
	}

	// The edges themselves, and a store reaching into the range from an
	// untracked page on either side, flush. Each flush empties the
	// tracker, so re-track before the next.
	for _, tc := range []struct {
		name       string
		addr, size uint64
	}{
		{"first byte of the lowest tracked page", 4 * PageSize, 1},
		{"last byte of the highest tracked page", 7*PageSize - 1, 1},
		{"spanning untracked page 3 and tracked page 4", 4*PageSize - 4, 8},
		{"spanning tracked page 6 and untracked page 7", 7*PageSize - 4, 8},
	} {
		if _, flushed := store(tc.addr, tc.size); !flushed || !trk.flushed {
			t.Errorf("%s: no flush", tc.name)
		}
		trk.flushed = false
		// flush reset the range: the old pages no longer probe.
		if probed, _ := store(5*PageSize, 8); probed {
			t.Errorf("%s: range survived the flush", tc.name)
		}
		trk.track(4*PageSize+10, 4*PageSize+20)
		trk.track(6*PageSize, 6*PageSize+1)
	}

	// track after flush starts a fresh range, not the union with the old.
	trk.flush()
	trk.track(20*PageSize, 20*PageSize+5)
	if probed, _ := store(6*PageSize, 8); probed {
		t.Error("a page tracked before the flush is still inside the range")
	}
	if _, flushed := store(20*PageSize+4, 1); !flushed {
		t.Error("a store into the freshly tracked page did not flush")
	}
}

// TestDecodeBlockEndsAtSpecial: a block stops in front of a bound
// runtime address or the exit sentinel, except at its own first
// instruction (the engine has probed that address already).
func TestDecodeBlockEndsAtSpecial(t *testing.T) {
	const base = 0x400000
	m := NewMachine()
	m.Mem.WriteBytes(base, []byte{0x90, 0x90, 0x90, 0x90, 0xF4})
	if insts, end, _ := decodeBlock(m, base); len(insts) != 5 || end != base+5 {
		t.Fatalf("plain block: %d instructions to %#x, want 5 to %#x", len(insts), end, base+5)
	}
	BindNop(m, base+2)
	m.ExitAddr = base + 3
	for _, tc := range []struct {
		pc  uint64
		n   int
		end uint64
	}{{base, 2, base + 2}, {base + 2, 1, base + 3}, {base + 3, 2, base + 5}} {
		insts, end, err := decodeBlock(m, tc.pc)
		if err != nil || len(insts) != tc.n || end != tc.end {
			t.Errorf("block at %#x: %d instructions to %#x (%v), want %d to %#x", tc.pc, len(insts), end, err, tc.n, tc.end)
		}
	}
}

// TestDecodeBlockFollowsHops: a block runs on through a direct jmp or
// call rel32 to an address it does not hold yet — a trampoline hop and
// the hop back are one block — and stops at a jump into itself, so a
// loop never unrolls.
func TestDecodeBlockFollowsHops(t *testing.T) {
	const site, tramp = 0x400000, 0x480000
	m := NewMachine()
	// site: nop; jmp tramp; back: nop; call sub; sub: jmp site
	m.Mem.WriteBytes(site, []byte{0x90, 0xE9, 0xFA, 0xFF, 0x07, 0x00, 0x90, 0xE8, 0x00, 0x00, 0x00, 0x00, 0xEB, 0xF2})
	// tramp: nop; jmp back
	m.Mem.WriteBytes(tramp, []byte{0x90, 0xE9, 0x00, 0x00, 0xF8, 0xFF})
	insts, end, err := decodeBlock(m, site)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	for _, in := range insts {
		addrs = append(addrs, in.Addr)
	}
	want := []uint64{site, site + 1, tramp, tramp + 1, site + 6, site + 7, site + 12}
	if fmt.Sprint(addrs) != fmt.Sprint(want) || end != site+14 {
		t.Errorf("block runs %#x to %#x, want %#x to %#x", addrs, end, want, site+14)
	}
}
