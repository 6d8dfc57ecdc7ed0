package disasm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"e9patch/internal/work"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// linear is the sequential sweep and parallel the sharded one, both
// recoverLinear with no cancel channel.
func linear(code []byte, addr uint64) Result { return parallel(code, addr, 1, nil) }

func parallel(code []byte, addr uint64, width int, pool *work.Pool) Result {
	res, _ := recoverLinear(code, addr, width, pool, nil)
	return res
}

// naiveLinear is the linear sweep as the paper states it, one decode at
// a time with no table and no shards: the reference the table walk must
// equal.
func naiveLinear(code []byte, addr uint64) Result {
	var res Result
	for off := 0; off < len(code); {
		inst, err := x86.Decode(code[off:], addr+uint64(off))
		if err != nil {
			res.BadBytes++
			off++
			continue
		}
		res.Insts = append(res.Insts, inst.Loc())
		off += inst.Len
	}
	return res
}

// sameUniverse requires got to be want record for record — address,
// length, attributes and bytes — with the same bad-byte count and so
// the same digest.
func sameUniverse(t *testing.T, want, got Result, ctx string) {
	t.Helper()
	sameResult(t, want, got, ctx)
	for i := range want.Insts {
		w, g := &want.Insts[i], &got.Insts[i]
		if g.Attrs != w.Attrs || !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%s: inst %d at %#x = %x attrs %#x, want %x attrs %#x",
				ctx, i, w.Addr, g.Bytes(), g.Attrs, w.Bytes(), w.Attrs)
		}
	}
	if g, w := UniverseDigest(ModeLinear, got), UniverseDigest(ModeLinear, want); g != w {
		t.Fatalf("%s: digest %s, want %s", ctx, g, w)
	}
}

// The 15-byte instruction of seamShapes and where it starts.
const (
	longInstShape = "15-byte instruction across a seam"
	longInstOff   = 2*minShardBytes - 7
)

// seamShapes are texts built to stress the stitch; every seam of a
// width >= 2 recovery falls on a multiple of minShardBytes.
func seamShapes() map[string][]byte {
	rng := rand.New(rand.NewSource(18))
	const shards = 6
	plain := func() []byte { return genCode(rng, shards*minShardBytes) }
	shapes := map[string][]byte{}

	// The longest instruction there is — five segment prefixes, REX.W
	// and a movabs — starting 7 bytes before a seam, behind enough nops
	// that the sweep is sure to land on its first byte.
	long := plain()
	copy(long[longInstOff-15:], bytes.Repeat([]byte{0x90}, 15))
	copy(long[longInstOff:], []byte{
		0x2E, 0x2E, 0x2E, 0x2E, 0x2E, 0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8,
	})
	shapes[longInstShape] = long

	bad := plain()
	for off := 3*minShardBytes - 9; off < 3*minShardBytes+9; off++ {
		bad[off] = 0x06 // invalid in 64-bit mode
	}
	shapes["bad bytes at a seam"] = bad

	// After a one-byte nop the sweep walks `add %al,(%rax)` (00 00) at
	// odd offsets; every shard starts at an even one and walks the same
	// bytes at even offsets. The two never meet, through four shards,
	// until ordinary code follows.
	slow := plain()
	slow[0] = 0x90
	for off := 1; off < 4*minShardBytes+minShardBytes/2; off++ {
		slow[off] = 0
	}
	shapes["re-synchronises only after several shards"] = slow

	shapes["below the shard floor"] = genCode(rng, 2*minShardBytes-1)
	shapes["empty"] = nil
	return shapes
}

// TestLinearTableMatchesSequential: linear recovery in the per-offset
// table — sharded sweep, stitch, emitted universe — equals the naive
// one-at-a-time sweep at every width, on every workload profile and on
// the shapes that stress a seam.
func TestLinearTableMatchesSequential(t *testing.T) {
	check := func(t *testing.T, code []byte, addr uint64) {
		t.Helper()
		want := naiveLinear(code, addr)
		for _, width := range []int{1, 2, 3, 8} {
			got, _, ok := RecoverCancel(ModeLinear, code, addr, width, nil, nil)
			if !ok {
				t.Fatalf("width %d: cancelled without a cancel", width)
			}
			sameUniverse(t, want, got, fmt.Sprintf("width %d", width))
		}
	}
	for name, code := range seamShapes() {
		t.Run(name, func(t *testing.T) {
			check(t, code, 0x401000)
			if name == longInstShape {
				got := parallel(code, 0x401000, 2, nil).Insts
				i := sort.Search(len(got), func(i int) bool { return got[i].Addr >= 0x401000+longInstOff })
				if i == len(got) || got[i].Addr != 0x401000+longInstOff || got[i].Len != 15 {
					t.Fatal("the shape does not put a 15-byte instruction across the seam")
				}
			}
			// As under SkipPrefix: entered a few bytes on, mid-instruction.
			for skip := 1; skip <= 3 && skip < len(code); skip++ {
				check(t, code[skip:], 0x401000+uint64(skip))
			}
		})
	}
	for _, p := range workload.AllProfiles() {
		t.Run(p.Name, func(t *testing.T) {
			prog, err := workload.BuildStatic(p, min(1, goldenText/(p.SizeMB*1e6)))
			if err != nil {
				t.Fatal(err)
			}
			code, addr := textOf(t, prog.ELF)
			check(t, code, addr)
		})
	}
}

// TestLinearPhasesPollCancel: the sweep, the stitch and the
// materialization each stop on a closed cancel, so a phase deadline
// that expires after the shards are done still ends the recovery.
func TestLinearPhasesPollCancel(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	code := workload.ForwardChain(1<<16, false)
	tab := table{code: code, addr: 0x401000, lens: make([]uint8, len(code))}
	if _, ok := tab.sweep(0, len(code), closed); ok {
		t.Error("sweep ignored a closed cancel")
	}
	if _, ok := tab.sweep(0, len(code), nil); !ok {
		t.Fatal("sweep stopped without a cancel")
	}
	sh := shards{n: len(code), count: 2}
	if tab.stitch(sh, []int{0, len(code)}, closed) {
		t.Error("stitch ignored a closed cancel")
	}
	if locs, _, ok := tab.universe(nil, 0, 0, 2, nil, closed); ok || locs != nil {
		t.Error("materialization ignored a closed cancel")
	}
	for _, width := range []int{1, 4} {
		if res, stats, ok := RecoverCancel(ModeLinear, code, 0x401000, width, nil, closed); ok || stats != nil || res.Insts != nil {
			t.Errorf("width %d: recovery ignored a closed cancel", width)
		}
	}
}

// BenchmarkRecoverLinear is linear recovery of 1 MB of Chrome-mix text
// at widths 1 and 2. Run with -benchmem: B/op against the text size is
// the recovery's whole memory cost, the table plus the universe.
func BenchmarkRecoverLinear(b *testing.B) {
	p, err := workload.ProfileByName("Chrome")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.BuildStatic(p, 1/p.SizeMB)
	if err != nil {
		b.Fatal(err)
	}
	code, addr := textOf(b, prog.ELF)
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(code)))
			for i := 0; i < b.N; i++ {
				if _, _, ok := RecoverCancel(ModeLinear, code, addr, width, nil, nil); !ok {
					b.Fatal("cancelled without cancel")
				}
			}
		})
	}
}
