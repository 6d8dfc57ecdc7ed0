package disasm

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestSupersetHostileShapesLinear bounds the worst case: 1 MB of each
// shape goes through sweep, refinement and CET closure in well under
// 2 s, with the outcome each shape is built to have. (The reference
// fixpoint the table replaced took 20 s on a 32 KB sled.)
func TestSupersetHostileShapesLinear(t *testing.T) {
	const n = 1 << 20
	for _, tc := range []struct {
		name                 string
		code                 []byte
		decoded, valid, kept int
	}{
		{"sled", workload.NopSled(n), n - 1, 0, 0},
		// Only the final cld (the ladder's last FC read alone) survives:
		// it falls off the section end.
		{"ladder", workload.BackwardLadder(n), n - 1, 1, 0},
		// Even offsets jump to the next jump, odd ones decode 00 EB as
		// an add and chain among themselves up to a truncated last byte;
		// only the jumps are reachable from the section start.
		{"chain", workload.ForwardChain(n, false), n - 1, n - 1, n / 2},
		{"poisoned chain", workload.ForwardChain(n, true), n - 2, 0, 0},
	} {
		start := time.Now()
		sup, ok := supersetCancel(tc.code, 0x401000, 2, nil, nil)
		if !ok {
			t.Fatalf("%s: cancelled without cancel", tc.name)
		}
		if _, ok := sup.cetPrune(nil); !ok {
			t.Fatalf("%s: closure cancelled without cancel", tc.name)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: recovery of %d bytes took %v, want < 2s", tc.name, n, d)
		}
		decoded, valid := sup.count()
		kept := 0
		for off := range tc.code {
			if sup.keptAt(off) {
				kept++
			}
		}
		if decoded != tc.decoded || valid != tc.valid || kept != tc.kept {
			t.Errorf("%s: %d decoded, %d valid, %d kept; want %d, %d, %d",
				tc.name, decoded, valid, kept, tc.decoded, tc.valid, tc.kept)
		}
	}
}

// TestSupersetPhasesPollCancel: the refinement, the closure and the
// materialization each stop on a closed cancel, so a phase deadline
// that expires after the sweep still ends the recovery.
func TestSupersetPhasesPollCancel(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	code := workload.ForwardChain(1<<16, false)
	if sup, ok := supersetCancel(code, 0x401000, 1, nil, closed); ok || sup != nil {
		t.Fatal("sweep ignored a closed cancel")
	}
	sup := superset(code, 0x401000)
	fresh := &supersetResult{table: sup.table, flags: append([]uint8(nil), sup.flags...)}
	if fresh.refine(closed) {
		t.Error("refinement ignored a closed cancel")
	}
	if _, ok := sup.cetPrune(closed); ok {
		t.Error("closure ignored a closed cancel")
	}
	if insts, ok := sup.survivors(false, 1, nil, closed); ok || insts != nil {
		t.Error("materialization ignored a closed cancel")
	}
	for _, mode := range []Mode{ModeSuperset, ModeSupersetCET} {
		if _, stats, ok := RecoverCancel(mode, code, 0x401000, 2, nil, closed); ok || stats != nil {
			t.Errorf("%s: recovery ignored a closed cancel", mode)
		}
	}
}

// TestSupersetBranchTargetSeams pins the section-boundary rule for
// direct branches: a target below the section (wrapping or not) or
// exactly at its end is outside the section and acceptable; one byte
// earlier it is a successor like any other.
func TestSupersetBranchTargetSeams(t *testing.T) {
	for _, tc := range []struct {
		name  string
		addr  uint64
		code  []byte
		valid bool
	}{
		{"below the section", 0x401000, []byte{0xEB, 0x80}, true},
		{"wraps below address zero", 0x10, []byte{0xEB, 0x80}, true},
		{"wraps below address zero (rel32)", 0x10, []byte{0xE9, 0x00, 0x00, 0x00, 0x80}, true},
		{"exactly the section end", 0x401000, []byte{0xEB, 0x01, 0x06}, true},
		{"last byte, invalid", 0x401000, []byte{0xEB, 0x00, 0x06}, false},
		{"last byte, truncated", 0x401000, []byte{0xEB, 0x00, 0x48}, true},
		{"section end wraps the address space", ^uint64(0) - 2, []byte{0xEB, 0x00, 0x06}, true},
	} {
		sup := superset(tc.code, tc.addr)
		if sup.lenAt(0) == 0 {
			t.Fatalf("%s: branch did not decode", tc.name)
		}
		if sup.validAt(0) != tc.valid {
			t.Errorf("%s: valid = %t, want %t", tc.name, sup.validAt(0), tc.valid)
		}
	}
}

// TestSupersetTruncatedSuccessor: an offset that fails to decode only
// because the section ends neither chains nor poisons, as a branch
// target just as a fall-through (TestRefineTruncatedTail).
func TestSupersetTruncatedSuccessor(t *testing.T) {
	code := []byte{
		0x75, 0x01, // 0: jne 3 — the truncated tail
		0x90, // 2: nop, falling through into it
		0x48, // 3: a lone REX prefix: truncated
	}
	sup := superset(code, 0x401000)
	if !sup.truncatedAt(3) || sup.lenAt(3) != 0 {
		t.Fatal("tail not marked truncated")
	}
	if !sup.validAt(0) || !sup.validAt(2) {
		t.Fatal("a truncated successor poisoned its predecessors")
	}
	if anchors, _ := sup.cetPrune(nil); anchors != 1 {
		t.Fatalf("anchors = %d, want the section start alone", anchors)
	}
	if !sup.keptAt(0) || !sup.keptAt(2) || sup.keptAt(3) {
		t.Fatal("closure chained through (or stopped before) the truncated tail")
	}
	if got, want := occupancy(sup, true), []int{1, 1, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("occupancy %v, want %v", got, want)
	}
}

// referenceSuperset is the definition the table must agree with, as
// the pass-until-stable fixpoints over one x86.Inst per decodable
// offset that the table replaced: quadratic, but obviously right.
func referenceSuperset(code []byte, addr uint64) (valid, kept []bool) {
	n := len(code)
	insts := make([]*x86.Inst, n)
	hard := make([]bool, n) // does not decode, and not for lack of bytes
	for off := range code {
		inst, err := x86.Decode(code[off:], addr+uint64(off))
		if err == nil {
			insts[off] = &inst
		} else {
			hard[off] = err != x86.ErrTruncated
		}
	}
	// succs returns the in-section offsets of the fall-through and of
	// the displacement target, -1 for a successor that does not exist.
	succs := func(off int) (ft, jt int) {
		in := insts[off]
		at := func(a uint64) int {
			if a >= addr && a < addr+uint64(n) {
				return int(a - addr)
			}
			return -1
		}
		ft, jt = -1, -1
		if in.Attrs&x86.AttrStop == 0 {
			ft = at(in.Addr + uint64(in.Len))
		}
		if in.RelSize != 0 {
			jt = at(in.Target())
		}
		return ft, jt
	}
	valid, kept = make([]bool, n), make([]bool, n)
	for off := range code {
		valid[off] = insts[off] != nil
	}
	for changed := true; changed; {
		changed = false
		for off := range code {
			if !valid[off] {
				continue
			}
			ft, jt := succs(off)
			for _, s := range []int{ft, jt} {
				if s >= 0 && (hard[s] || insts[s] != nil && !valid[s]) {
					valid[off], changed = false, true
				}
			}
		}
	}
	for off := range code {
		kept[off] = valid[off] && (off == 0 || insts[off].IsEndbr64())
	}
	for changed := true; changed; {
		changed = false
		for off := range code {
			if !kept[off] {
				continue
			}
			ft, jt := succs(off)
			if !insts[off].IsDirectBranch() {
				jt = -1
			}
			for _, s := range []int{ft, jt} {
				if s >= 0 && valid[s] && !kept[s] {
					kept[s], changed = true, true
				}
			}
		}
	}
	return valid, kept
}

// TestSupersetMatchesReference compares the table with the reference
// on random buffers dense in short branches and invalid bytes, and
// checks kept ⊆ valid ⊆ decoded along the way.
func TestSupersetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alphabet := []byte{0x90, 0x06, 0xEB, 0x75, 0xE8, 0xE9, 0xC3, 0x48, 0x89, 0xF3, 0x0F, 0x1E, 0xFA, 0x00, 0xFC, 0xFF, 0xE0}
	for round := 0; round < 300; round++ {
		code := make([]byte, 1+rng.Intn(200))
		for i := range code {
			if rng.Intn(4) == 0 {
				code[i] = byte(rng.Intn(256))
			} else {
				code[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		const addr = 0x401000
		sup := superset(code, addr)
		sup.cetPrune(nil)
		valid, kept := referenceSuperset(code, addr)
		for off := range code {
			if sup.validAt(off) != valid[off] || sup.keptAt(off) != kept[off] {
				t.Fatalf("round %d, code % x: offset %d valid=%t kept=%t, reference valid=%t kept=%t",
					round, code, off, sup.validAt(off), sup.keptAt(off), valid[off], kept[off])
			}
			if sup.keptAt(off) && !sup.validAt(off) || sup.validAt(off) && sup.lenAt(off) == 0 {
				t.Fatalf("round %d: kept ⊆ valid ⊆ decoded broken at offset %d", round, off)
			}
		}
	}
}

// TestSupersetTableWidthDeterminism: the table is the same bytes at
// every width and after a cancelled run is retried.
func TestSupersetTableWidthDeterminism(t *testing.T) {
	code := genCode(rand.New(rand.NewSource(5)), 96<<10)
	const addr = 0x401000
	want := superset(code, addr)
	want.cetPrune(nil)
	closed := make(chan struct{})
	close(closed)
	for _, width := range []int{1, 2, 8} {
		if _, ok := supersetCancel(code, addr, width, nil, closed); ok {
			t.Fatalf("width %d: sweep ignored a closed cancel", width)
		}
		got, ok := supersetCancel(code, addr, width, nil, nil)
		if !ok {
			t.Fatalf("width %d: cancelled without cancel", width)
		}
		got.cetPrune(nil)
		if !bytes.Equal(got.lens, want.lens) || !bytes.Equal(got.flags, want.flags) ||
			got.decoded != want.decoded || got.valid != want.valid {
			t.Fatalf("width %d: table differs from the sequential sweep", width)
		}
	}
}

// BenchmarkRecoverSuperset is the recover-cet op's recovery half: one
// CET profile at 0.125 MB of text under both superset modes. Run with
// -benchmem; allocs/op is the number DESIGN.md §14 quotes.
func BenchmarkRecoverSuperset(b *testing.B) {
	p, err := workload.ProfileByName("nginx-cet")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.BuildStatic(p, 0.125/p.SizeMB)
	if err != nil {
		b.Fatal(err)
	}
	code, addr := textOf(b, prog.ELF)
	for _, mode := range []Mode{ModeSuperset, ModeSupersetCET} {
		b.Run(string(mode), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(code)))
			for i := 0; i < b.N; i++ {
				if _, _, ok := RecoverCancel(mode, code, addr, 1, nil, nil); !ok {
					b.Fatal("cancelled without cancel")
				}
			}
		})
	}
}
