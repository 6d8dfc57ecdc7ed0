package disasm

import (
	"bytes"
	"fmt"
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

// TestSupersetPhasesPollCancel: the sweep, each of the refinement's
// passes over the edges it leaves, the closure and the materialization
// each stop on a closed cancel, so a phase deadline that expires after
// the sweep still ends the recovery.
func TestSupersetPhasesPollCancel(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	code := workload.ForwardChain(1<<16, false)
	if sup, ok := supersetCancel(code, 0x401000, 1, nil, closed); ok || sup != nil {
		t.Fatal("sweep ignored a closed cancel")
	}
	for _, width := range []int{1, 8} {
		sup, edges, ok := sweepSuperset(code, 0x401000, width, nil, nil)
		if !ok {
			t.Fatal("sweep cancelled without cancel")
		}
		if sup.refine(edges, closed) {
			t.Errorf("width %d: refinement ignored a closed cancel", width)
		}
	}
	// In a chain whose every branch ends in the poisoned tail, the
	// edges leave seeds, so each pass after the seeds runs: each one
	// polls too.
	sup, edges, _ := sweepSuperset(workload.ForwardChain(1<<16, true), 0x401000, 8, nil, nil)
	if _, ok := sup.settle(edges, closed); ok {
		t.Error("the edge pass ignored a closed cancel")
	}
	work, _ := sup.settle(edges, nil)
	if len(work) == 0 {
		t.Fatal("the poisoned chain left no seeds")
	}
	if _, ok := sup.reverse(edges, closed); ok {
		t.Error("the reverse index ignored a closed cancel")
	}
	rev, _ := sup.reverse(edges, nil)
	if sup.drain(work, rev, closed) {
		t.Error("the worklist ignored a closed cancel")
	}
	sup = superset(code, 0x401000)
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
	for round := 0; round < 300; round++ {
		code := branchyText(rng, 1+rng.Intn(200))
		const addr = 0x401000
		sup := superset(code, addr)
		sup.cetPrune(nil)
		valid, kept := referenceSuperset(code, addr)
		checkReference(t, sup, valid, kept, fmt.Sprintf("round %d, code % x", round, code))
	}
}

// branchyText returns n random bytes dense in short branches and
// invalid bytes, so that poison chains are many and short.
func branchyText(rng *rand.Rand, n int) []byte {
	alphabet := []byte{0x90, 0x06, 0xEB, 0x75, 0xE8, 0xE9, 0xC3, 0x48, 0x89, 0xF3, 0x0F, 0x1E, 0xFA, 0x00, 0xFC, 0xFF, 0xE0}
	code := make([]byte, n)
	for i := range code {
		if rng.Intn(4) == 0 {
			code[i] = byte(rng.Intn(256))
		} else {
			code[i] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	return code
}

// checkReference compares a refined and closed table with the
// reference's valid and kept sets, and checks kept ⊆ valid ⊆ decoded
// along the way.
func checkReference(t *testing.T, sup *supersetResult, valid, kept []bool, ctx string) {
	t.Helper()
	for off := range valid {
		if sup.validAt(off) != valid[off] || sup.keptAt(off) != kept[off] {
			t.Fatalf("%s: offset %d valid=%t kept=%t, reference valid=%t kept=%t",
				ctx, off, sup.validAt(off), sup.keptAt(off), valid[off], kept[off])
		}
		if sup.keptAt(off) && !sup.validAt(off) || sup.validAt(off) && sup.lenAt(off) == 0 {
			t.Fatalf("%s: kept ⊆ valid ⊆ decoded broken at offset %d", ctx, off)
		}
	}
}

// TestSupersetShardSeams holds sharded tables to the reference across
// shard boundaries. The sweep settles the successors inside a shard
// and leaves the rest to edges, so a seam is where a sharded table
// could differ from the sequential one; FuzzSupersetPrune's 4 KB
// inputs are one shard. The buffers are nine shards' worth of
// branchyText, recovered at widths 2 and 8, whose shard counts (8 and
// 9) differ and so do their seams. At every seam of either, seamText
// plants successors that cross it in both directions: an instruction
// straddling it into a hard invalid, fall-through chains into that
// instruction, and branches across it each way onto hard invalids.
func TestSupersetShardSeams(t *testing.T) {
	const addr = 0x401000
	n := 9*minShardBytes + 777
	geoms := []shards{shardsFor(n, 2), shardsFor(n, 8)}
	if geoms[0].count != 8 || geoms[1].count != 9 {
		t.Fatalf("shard counts %d and %d, want 8 and 9", geoms[0].count, geoms[1].count)
	}
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 2; round++ {
		code := branchyText(rng, n)
		for _, sh := range geoms {
			for i := 1; i < sh.count; i++ {
				copy(code[sh.lo(i)-seamBelow:], seamText)
			}
		}
		valid, kept := referenceSuperset(code, addr)
		for _, sh := range geoms {
			for i := 1; i < sh.count; i++ {
				if b := sh.lo(i); valid[b-2] || valid[b-8] || valid[b+8] || valid[b-15] {
					t.Fatalf("round %d: the reference keeps a planted instruction at the seam %d valid", round, b)
				}
			}
		}
		for _, width := range []int{2, 8} {
			sup, ok := supersetCancel(code, addr, width, nil, nil)
			if !ok {
				t.Fatal("cancelled without cancel")
			}
			if _, ok := sup.cetPrune(nil); !ok {
				t.Fatal("closure cancelled without cancel")
			}
			ctx := fmt.Sprintf("round %d, width %d", round, width)
			checkReference(t, sup, valid, kept, ctx)
			checkSweepUniverse(t, sup, ctx)
		}
	}
}

// seamText is planted with its byte seamBelow on a shard boundary b.
// The instructions it starts below b, and the jmp at b+8, are invalid
// through a hard invalid on the other side of b.
var seamText = []byte{
	0x06,                                     // b-16: invalid, the target of b+8
	0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, // b-15: nops falling into b-8
	0xEB, 0x0B, // b-8: jmp b+5
	0x90, 0x90, 0x90, 0x90, // b-6: nops falling into b-2
	0x48, 0x89, 0x03, // b-2: mov [rbx], rax, ends at b+1
	0x06,             // b+1: invalid
	0x90, 0x90, 0x90, // b+2: nops falling into b+5
	0x06,       // b+5: invalid, the target of b-8
	0x90, 0x90, // b+6: nops falling into b+8
	0xEB, 0xE6, // b+8: jmp b-16
	0xC3, // b+10: ret
}

// seamBelow is how many bytes of seamText precede the seam.
const seamBelow = 16

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
// -benchmem; allocs/op is its share of recover-cet/e9patch.mallocs_per_op
// (DESIGN.md §3).
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

// checkSweepUniverse asserts what a superset universe takes from the
// sweep instead of a walk of its own: each shard of the sweep holds as
// many survivors as the counting walk finds there, for the valid set
// and, after cetPrune, the kept set, and every survivor's attributes
// are the ones AttrsOf derives from its bytes. The universe digest
// hashes addresses and lengths only, so the goldens cannot see a wrong
// attribute.
func checkSweepUniverse(t testing.TB, sup *supersetResult, ctx string) {
	t.Helper()
	for _, kept := range []bool{false, true} {
		mask, want, counts := flagInvalid, uint8(0), sup.validIn
		if kept {
			mask, want, counts = flagKept, flagKept, sup.keptIn
		}
		if len(counts) != sup.sh.count {
			t.Fatalf("%s kept=%v: %d shard counts for %d shards", ctx, kept, len(counts), sup.sh.count)
		}
		for i, c := range counts {
			if n, _, _ := sup.walk(sup.sh.lo(i), sup.sh.lo(i+1), sup.flags, mask, want, nil, nil); n != c {
				t.Fatalf("%s kept=%v: shard %d of %d counts %d survivors, the walk finds %d", ctx, kept, i, sup.sh.count, c, n)
			}
		}
		insts, ok := sup.survivors(kept, 1, nil, nil)
		if !ok {
			t.Fatalf("%s: cancelled without cancel", ctx)
		}
		for i := range insts {
			if got, want := insts[i].Attrs, x86.AttrsOf(insts[i].Bytes()); got != want {
				t.Fatalf("%s kept=%v: survivor at %#x has attributes %#x, AttrsOf reads %#x", ctx, kept, insts[i].Addr, got, want)
			}
		}
	}
}

// TestSupersetUniverseFromSweep runs checkSweepUniverse over every
// profile, under both superset modes (the kept set is recovered by
// superset-cet, the valid set by superset), at widths 1, 2 and 8.
func TestSupersetUniverseFromSweep(t *testing.T) {
	profiles := workload.AllProfiles()
	if len(profiles) != 44 {
		t.Fatalf("%d profiles, want 44", len(profiles))
	}
	for _, p := range profiles {
		// 0.1 MB of text is six sweep shards at widths 2 and 8.
		scale := min(0.1/p.SizeMB, 1)
		prog, err := workload.BuildStatic(p, scale)
		if err != nil {
			t.Fatal(err)
		}
		code, addr := textOf(t, prog.ELF)
		for _, width := range []int{1, 2, 8} {
			sup, ok := supersetCancel(code, addr, width, nil, nil)
			if !ok {
				t.Fatal("cancelled without cancel")
			}
			if _, ok := sup.cetPrune(nil); !ok {
				t.Fatal("closure cancelled without cancel")
			}
			checkSweepUniverse(t, sup, fmt.Sprintf("%s/width=%d", p.Name, width))
			for _, mode := range []Mode{ModeSuperset, ModeSupersetCET} {
				res, stats, _ := RecoverCancel(mode, code, addr, width, nil, nil)
				for i := range res.Insts {
					if in := &res.Insts[i]; in.Attrs != x86.AttrsOf(in.Bytes()) {
						t.Fatalf("%s/%s/width=%d: Recover's record at %#x has attributes %#x, AttrsOf reads %#x",
							p.Name, mode, width, in.Addr, in.Attrs, x86.AttrsOf(in.Bytes()))
					}
				}
				if stats.Kept != len(res.Insts) {
					t.Fatalf("%s/%s/width=%d: %d kept, %d recovered", p.Name, mode, width, stats.Kept, len(res.Insts))
				}
			}
		}
	}
}

// TestShardOf: of inverts lo at every offset, for counts that divide
// the length and counts that do not.
func TestShardOf(t *testing.T) {
	for _, sh := range []shards{{1, 1}, {7, 1}, {100, 3}, {16 << 10, 8}, {(96 << 10) + 5, 24}} {
		for i := 0; i < sh.count; i++ {
			for off := sh.lo(i); off < sh.lo(i+1); off++ {
				if got := sh.of(off); got != i {
					t.Fatalf("%+v: offset %d in shard %d, of says %d", sh, off, i, got)
				}
			}
		}
	}
}
