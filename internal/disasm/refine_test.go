package disasm

import (
	"bytes"
	"testing"

	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestRefineTruncatedTail is the regression for the span-end rule: a
// final instruction cut off by the section end must not poison the
// genuine chain leading up to it — superset refinement treats the
// truncated offsets exactly like Linear's skip behavior.
func TestRefineTruncatedTail(t *testing.T) {
	a := x86.NewAsm(0x401000)
	a.AddRegImm64(x86.RAX, 5)
	a.XorRegReg64(x86.RCX, x86.RAX)
	a.Nop()
	full := a.MustFinish()
	// Append the first two bytes of "mov [rbx], rax" (48 89 03): both
	// tail offsets decode as truncated, not invalid.
	code := append(full, 0x48, 0x89)

	lin := linear(code, 0x401000)
	sup := superset(code, 0x401000)

	if !sup.truncatedAt(len(full)) || !sup.truncatedAt(len(full)+1) {
		t.Fatal("tail offsets not marked truncated")
	}
	if sup.lenAt(len(full)) != 0 {
		t.Fatal("truncated tail decoded")
	}
	// Every linear instruction survives — in particular the final nop,
	// whose only fall-through successor is the truncated tail.
	for _, in := range lin.Insts {
		if !sup.validAt(int(in.Addr - 0x401000)) {
			t.Errorf("linear instruction at %#x invalidated by the truncated tail", in.Addr)
		}
	}
	// Linear counts the tail bytes as bad; superset's badOffsets agrees
	// on the undecodable tail.
	if lin.BadBytes != 2 {
		t.Fatalf("linear BadBytes = %d, want the 2 truncated tail bytes", lin.BadBytes)
	}
	if sup.badOffsets() < 2 {
		t.Fatalf("superset badOffsets = %d", sup.badOffsets())
	}
}

// TestRefineHardInvalidStillPoisons is the control for the truncation
// rule: a chain that must reach a mid-section *invalid* byte is still
// pruned — only span-end truncation is forgiven.
func TestRefineHardInvalidStillPoisons(t *testing.T) {
	code := []byte{
		0x90,       // 0: nop — falls through into the invalid byte
		0x06,       // 1: invalid in 64-bit mode
		0x90, 0xC3, // 2: nop; ret
	}
	sup := superset(code, 0x401000)
	if sup.lenAt(1) != 0 || sup.truncatedAt(1) {
		t.Fatal("0x06 should be a hard invalid, not truncated")
	}
	// The nop at 0 must be pruned: its fall-through is invalid.
	if sup.lenAt(0) != 1 || sup.validAt(0) {
		t.Fatal("nop falling into a hard-invalid byte survived refinement")
	}
	if !sup.validAt(2) || !sup.validAt(3) {
		t.Fatal("the clean nop; ret past the invalid byte was pruned")
	}
}

// TestValidInstsOverlap covers overlapping and boundary-crossing
// decodes: instructions starting inside another's immediate survive
// when their own chains are clean, Insts returns them all in
// address order, and occupancy reports the overlap depth.
func TestValidInstsOverlap(t *testing.T) {
	code := []byte{
		0xB8, 0x90, 0x90, 0x90, 0x90, // 0: mov eax, 0x90909090
		0xC3, // 5: ret
	}
	sup := superset(code, 0x401000)
	insts, _ := sup.survivors(false, 1, nil, nil)
	// The misaligned decodes at offsets 1..4 are all nops falling
	// through to the ret — every offset survives.
	wantOffsets := []int{0, 1, 2, 3, 4, 5}
	if len(insts) != len(wantOffsets) {
		t.Fatalf("Insts returned %d instructions, want %d", len(insts), len(wantOffsets))
	}
	for i, off := range wantOffsets {
		if got := int(insts[i].Addr - 0x401000); got != off {
			t.Fatalf("Insts[%d] at offset %d, want %d", i, got, off)
		}
	}
	for i := 1; i < len(insts); i++ {
		if insts[i].Addr <= insts[i-1].Addr {
			t.Fatal("Insts not strictly address ordered")
		}
	}
	// The mov covers bytes 0..4; the nop at 1 overlaps it, crossing
	// nothing; occupancy over the immediate bytes is 2 (mov + nop).
	occ := occupancy(sup, false)
	if occ[0] != 1 {
		t.Errorf("occ[0] = %d, want 1 (only the mov)", occ[0])
	}
	for b := 1; b <= 4; b++ {
		if occ[b] != 2 {
			t.Errorf("occ[%d] = %d, want 2 (mov immediate + misaligned nop)", b, occ[b])
		}
	}
	if occ[5] != 1 {
		t.Errorf("occ[5] = %d, want 1 (ret)", occ[5])
	}
	// Only the mov and the ret are reachable from the section start.
	if anchors, _ := sup.cetPrune(nil); anchors != 1 {
		t.Fatalf("anchors = %d, want the section start alone", anchors)
	}
	for b, c := range occupancy(sup, true) {
		if c != 1 {
			t.Errorf("kept occ[%d] = %d, want 1 (mov, then ret)", b, c)
		}
	}
}

// TestValidInstsCrossBoundary: a decode starting inside one real
// instruction and extending across its end into the next one.
func TestValidInstsCrossBoundary(t *testing.T) {
	code := []byte{
		0xB8, 0x01, 0x48, 0x89, 0x03, // 0: mov eax, 0x3894801
		0xC3, // 5: ret
	}
	// Offset 2 decodes 48 89 03 = mov [rbx], rax (3 bytes), crossing
	// the mov's boundary at 5 exactly onto the ret.
	sup := superset(code, 0x401000)
	if sup.lenAt(2) != 3 {
		t.Fatalf("decode at offset 2 has length %d, want 3", sup.lenAt(2))
	}
	if !sup.validAt(2) {
		t.Fatal("cross-boundary decode chaining onto the ret was pruned")
	}
	if !sup.validAt(0) {
		t.Fatal("the genuine mov was pruned")
	}
}

// FuzzSupersetPrune checks structural invariants on arbitrary byte
// streams: sharding determinism, kept ⊆ valid ⊆ decoded, address
// ordering, occupancy consistency, and the linear dispatcher identity.
// (Superset ⊇ linear holds on clean code, not arbitrary bytes — a
// genuine instruction that falls through into data is rightly pruned —
// so the fuzz asserts only the unconditional properties.)
func FuzzSupersetPrune(f *testing.F) {
	f.Add([]byte{0x90, 0xC3})
	f.Add([]byte{0xB8, 0x90, 0x90, 0x90, 0x90, 0xC3})
	f.Add([]byte{0x48, 0x89, 0x03, 0xEB, 0x05, 0x06, 0x06, 0x06, 0x06, 0x06, 0xC3})
	f.Add([]byte{0xF3, 0x0F, 0x1E, 0xFA, 0x55, 0xC3, 0x90, 0xF3, 0x0F, 0x1E, 0xFA, 0xC3})
	f.Add([]byte{0x48, 0x89})
	f.Add(workload.NopSled(256))
	f.Add(workload.BackwardLadder(256))
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		const addr = 0x401000
		sup, ok := supersetCancel(code, addr, 1, nil, nil)
		if !ok {
			t.Fatal("cancelled without cancel")
		}
		// Sharding determinism: a wide sweep is bit-identical.
		wide, ok := supersetCancel(code, addr, 8, nil, nil)
		if !ok {
			t.Fatal("wide sweep cancelled")
		}
		if !bytes.Equal(wide.lens, sup.lens) || !bytes.Equal(wide.flags, sup.flags) {
			t.Fatal("width changed the table")
		}

		decoded, valid := sup.count()
		nDecoded, nValid := 0, 0
		for off := range code {
			if sup.lenAt(off) != 0 {
				nDecoded++
			}
			if sup.validAt(off) {
				nValid++
			}
		}
		if valid > decoded || decoded != nDecoded || valid != nValid || sup.badOffsets() != len(code)-decoded {
			t.Fatalf("counts inconsistent: %d valid of %d decoded, table holds %d of %d", valid, decoded, nValid, nDecoded)
		}
		if _, ok := sup.cetPrune(nil); !ok {
			t.Fatal("closure cancelled without cancel")
		}
		nKept, wantTotal := 0, 0
		for off := range code {
			if !sup.keptAt(off) {
				continue
			}
			nKept++
			if !sup.validAt(off) {
				t.Fatal("kept ⊄ valid")
			}
			n := sup.lenAt(off)
			if end := off + n; end > len(code) {
				n -= end - len(code)
			}
			wantTotal += n
		}
		if insts, _ := sup.survivors(true, 1, nil, nil); len(insts) != nKept {
			t.Fatalf("Insts(kept) %d != table %d", len(insts), nKept)
		}
		vi, _ := sup.survivors(false, 1, nil, nil)
		if len(vi) != valid {
			t.Fatalf("Insts(valid) %d != valid %d", len(vi), valid)
		}
		for i := range vi {
			if i > 0 && vi[i].Addr <= vi[i-1].Addr {
				t.Fatal("Insts out of order")
			}
			if off := int(vi[i].Addr - addr); int(vi[i].Len) != sup.lenAt(off) || !sup.validAt(off) {
				t.Fatalf("Insts[%d] disagrees with the table at offset %d", i, off)
			}
		}
		// Occupancy never exceeds the per-byte decode count and is zero
		// exactly where nothing kept covers.
		occ := occupancy(sup, true)
		if len(occ) != len(code) {
			t.Fatalf("occupancy length %d != code %d", len(occ), len(code))
		}
		total := 0
		for _, c := range occ {
			if c < 0 {
				t.Fatal("negative occupancy")
			}
			total += c
		}
		if total != wantTotal {
			t.Fatalf("occupancy mass %d != kept instruction bytes %d", total, wantTotal)
		}

		// The dispatcher in linear mode is the linear sweep.
		lres, stats, ok := RecoverCancel(ModeLinear, code, addr, 4, nil, nil)
		if !ok || stats != nil {
			t.Fatal("linear dispatch misbehaved")
		}
		lin := linear(code, addr)
		if len(lres.Insts) != len(lin.Insts) || lres.BadBytes != lin.BadBytes {
			t.Fatal("linear dispatch != Linear")
		}
		// Digests are deterministic.
		cres, _, _ := RecoverCancel(ModeSupersetCET, code, addr, 1, nil, nil)
		cres2, _, _ := RecoverCancel(ModeSupersetCET, code, addr, 8, nil, nil)
		if UniverseDigest(ModeSupersetCET, cres) != UniverseDigest(ModeSupersetCET, cres2) {
			t.Fatal("digest not width-deterministic")
		}
	})
}
