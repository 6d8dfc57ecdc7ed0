package disasm

import (
	"math/rand"
	"testing"

	"e9patch/internal/work"
	"e9patch/internal/x86"
)

// genCode builds a byte stream mixing real instructions with junk so
// that shard seams land both on instruction boundaries and inside
// embedded data.
func genCode(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		switch rng.Intn(8) {
		case 0: // raw junk run (forces bad bytes and mis-synced seams)
			run := rng.Intn(24) + 1
			for i := 0; i < run; i++ {
				out = append(out, byte(rng.Intn(256)))
			}
		default:
			a := x86.NewAsm(0)
			switch rng.Intn(6) {
			case 0:
				a.AddRegImm64(x86.RAX, int32(rng.Intn(1<<20)))
			case 1:
				a.MovMemReg64(x86.M(x86.RBX, int32(rng.Intn(128))), x86.RCX)
			case 2:
				a.PushReg(x86.RDX)
			case 3:
				a.XorRegReg64(x86.RSI, x86.RDI)
			case 4:
				a.Nop()
			case 5:
				a.MovRegImm64(x86.R8, rng.Uint64())
			}
			out = append(out, a.MustFinish()...)
		}
	}
	return out[:n]
}

func sameResult(t *testing.T, want, got Result, ctx string) {
	t.Helper()
	if got.BadBytes != want.BadBytes {
		t.Fatalf("%s: BadBytes %d != %d", ctx, got.BadBytes, want.BadBytes)
	}
	if len(got.Insts) != len(want.Insts) {
		t.Fatalf("%s: %d insts != %d", ctx, len(got.Insts), len(want.Insts))
	}
	for i := range want.Insts {
		if got.Insts[i].Addr != want.Insts[i].Addr || got.Insts[i].Len != want.Insts[i].Len {
			t.Fatalf("%s: inst %d = %#x/%d, want %#x/%d",
				ctx, i, got.Insts[i].Addr, got.Insts[i].Len, want.Insts[i].Addr, want.Insts[i].Len)
		}
	}
}

func TestParallelMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const addr = 0x401000
	for _, size := range []int{0, 100, minShardBytes - 1, 2 * minShardBytes, 5*minShardBytes + 333} {
		code := genCode(rng, size)
		want := linear(code, addr)
		for _, width := range []int{1, 2, 3, 8} {
			got := parallel(code, addr, width, nil)
			sameResult(t, want, got, "")
		}
		// And under a shared, partially saturated pool.
		got := parallel(code, addr, 8, work.NewPool(2))
		sameResult(t, want, got, "pooled")
	}
}

func TestParallelAllJunk(t *testing.T) {
	// Every byte undecodable: BadBytes must equal len for any width.
	code := make([]byte, 3*minShardBytes)
	for i := range code {
		code[i] = 0x06 // invalid in 64-bit mode
	}
	want := linear(code, 0x1000)
	if want.BadBytes != len(code) {
		t.Fatalf("baseline BadBytes = %d", want.BadBytes)
	}
	sameResult(t, want, parallel(code, 0x1000, 4, nil), "junk")
}

func TestParallelSeamStraddle(t *testing.T) {
	// Long instructions (10-byte movabs) ensure instructions straddle
	// every shard seam; the stitch must repair each one.
	a := x86.NewAsm(0x400000)
	for i := 0; i < 4*minShardBytes/10; i++ {
		a.MovRegImm64(x86.RAX, uint64(i)*0x0101010101)
	}
	code := a.MustFinish()
	want := linear(code, 0x400000)
	for _, width := range []int{2, 4, 16} {
		sameResult(t, want, parallel(code, 0x400000, width, nil), "straddle")
	}
}

func FuzzLinearParallel(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed+2))
	}
	f.Fuzz(func(t *testing.T, seed int64, width uint8) {
		rng := rand.New(rand.NewSource(seed))
		code := genCode(rng, 2*minShardBytes+rng.Intn(minShardBytes))
		w := int(width%16) + 1
		got := parallel(code, 0x401000, w, nil)
		sameUniverse(t, naiveLinear(code, 0x401000), got, "fuzz")
	})
}
