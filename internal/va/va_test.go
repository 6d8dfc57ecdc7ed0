package va

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestReserveBasic(t *testing.T) {
	s := NewDefault()
	if err := s.Reserve(0x400000, 0x500000); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(0x480000, 0x490000); err == nil {
		t.Fatal("overlapping reservation accepted")
	}
	if err := s.Reserve(0x4fffff, 0x500001); err == nil {
		t.Fatal("boundary-overlapping reservation accepted")
	}
	if err := s.Reserve(0x500000, 0x500010); err != nil {
		t.Fatalf("touching reservation rejected: %v", err)
	}
	if s.Count() != 1 {
		t.Errorf("touching intervals not merged: count=%d", s.Count())
	}
	if err := s.Reserve(0x300000, 0x300000); err == nil {
		t.Fatal("empty reservation accepted")
	}
	if err := s.Reserve(0x1000, 0x2000); err == nil {
		t.Fatal("below-min reservation accepted")
	}
}

func TestAllocFirstFit(t *testing.T) {
	s := NewDefault()
	mustReserve(t, s, 0x400000, 0x401000)

	addr, ok := s.Alloc(0x100, 0x400000, 0x500000)
	if !ok {
		t.Fatal("alloc failed")
	}
	if addr != 0x401000 {
		t.Errorf("first fit = %#x, want %#x", addr, 0x401000)
	}
	// Second allocation packs immediately after.
	addr2, ok := s.Alloc(0x100, 0x400000, 0x500000)
	if !ok || addr2 != 0x401100 {
		t.Errorf("second fit = %#x ok=%v, want %#x", addr2, ok, 0x401100)
	}
	// Window entirely inside a reservation fails.
	if _, ok := s.Alloc(0x10, 0x400100, 0x400200); ok {
		t.Error("alloc inside reservation succeeded")
	}
	// Window whose every start is occupied but gap begins past hi fails.
	if _, ok := s.Alloc(0x10, 0x400f00, 0x400fff); ok {
		t.Error("alloc with no in-window start succeeded")
	}
}

func TestAllocWindowEdges(t *testing.T) {
	s := NewDefault()
	// Allocation start may equal hi exactly.
	addr, ok := s.Alloc(0x40, 0x700000, 0x700000)
	if !ok || addr != 0x700000 {
		t.Fatalf("exact-window alloc = %#x ok=%v", addr, ok)
	}
	// Allocation must fit below Max.
	if _, ok := s.Alloc(0x20, s.Max()-0x10, s.Max()); ok {
		t.Error("allocation beyond Max succeeded")
	}
	// Allocation window below Min is clamped.
	addr, ok = s.Alloc(0x10, 0, DefaultMin)
	if !ok || addr != DefaultMin {
		t.Errorf("min-clamped alloc = %#x ok=%v", addr, ok)
	}
}

func TestAllocSkipsHoles(t *testing.T) {
	s := NewDefault()
	// Occupy 0x500000-0x500100 and 0x500180-0x500200, leaving a
	// 0x80-byte hole.
	mustReserve(t, s, 0x500000, 0x500100)
	mustReserve(t, s, 0x500180, 0x500200)
	addr, ok := s.Alloc(0x100, 0x500000, 0x600000)
	if !ok || addr != 0x500200 {
		t.Errorf("alloc = %#x, want hole skipped to %#x", addr, 0x500200)
	}
	// A smaller request lands in the hole.
	addr, ok = s.Alloc(0x80, 0x500000, 0x600000)
	if !ok || addr != 0x500100 {
		t.Errorf("alloc = %#x, want %#x", addr, 0x500100)
	}
}

func TestGaps(t *testing.T) {
	s := NewDefault()
	mustReserve(t, s, 0x500100, 0x500200)
	mustReserve(t, s, 0x500300, 0x500400)
	gaps := s.Gaps(0x40, 0x500000, 0x500500, 10)
	want := []uint64{0x500000, 0x500200, 0x500400}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %#x, want %#x", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Errorf("gap %d = %#x, want %#x", i, gaps[i], want[i])
		}
	}
	if got := s.Gaps(0x40, 0x500000, 0x500500, 2); len(got) != 2 {
		t.Errorf("max not honoured: %d gaps", len(got))
	}
}

func TestRelease(t *testing.T) {
	s := NewDefault()
	mustReserve(t, s, 0x500000, 0x501000)
	// Interior release splits the interval.
	if err := s.Release(0x500400, 0x500800); err != nil {
		t.Fatal(err)
	}
	if s.Occupied(0x500400, 0x500800) {
		t.Error("released range still occupied")
	}
	if !s.Occupied(0x500000, 0x500400) || !s.Occupied(0x500800, 0x501000) {
		t.Error("split remnants lost")
	}
	if s.occupiedBytes() != 0x1000-0x400 {
		t.Errorf("occupied bytes = %#x", s.occupiedBytes())
	}
	// Releasing a free range fails.
	if err := s.Release(0x500400, 0x500800); err == nil {
		t.Error("double release accepted")
	}
	// Release spanning a hole fails.
	if err := s.Release(0x500000, 0x501000); err == nil {
		t.Error("release across hole accepted")
	}
	// Full release of an exact interval.
	if err := s.Release(0x500000, 0x500400); err != nil {
		t.Fatal(err)
	}
	// The freed space is allocatable again.
	addr, ok := s.Alloc(0x400, 0x500000, 0x500000)
	if !ok || addr != 0x500000 {
		t.Errorf("realloc = %#x ok=%v", addr, ok)
	}
}

func TestPageCount(t *testing.T) {
	s := NewDefault()
	mustReserve(t, s, 0x400000, 0x400001) // 1 page
	mustReserve(t, s, 0x401fff, 0x403001) // 3 pages (crosses two boundaries)
	if got := s.pageCount(0x1000); got != 4 {
		t.Errorf("pageCount = %d, want 4", got)
	}
}

func mustReserve(t *testing.T, s *Space, lo, hi uint64) {
	t.Helper()
	if err := s.Reserve(lo, hi); err != nil {
		t.Fatal(err)
	}
}

// TestSpaceInvariants property-tests the interval set against a naive
// model: random reserves and allocs, then full cross-checks.
func TestSpaceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(0x10000, 0x10000000)
		type op struct{ lo, hi uint64 }
		var model []op

		overlapsModel := func(lo, hi uint64) bool {
			for _, m := range model {
				if lo < m.hi && m.lo < hi {
					return true
				}
			}
			return false
		}

		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 {
				lo := 0x10000 + uint64(rng.Intn(0x100000))
				hi := lo + uint64(rng.Intn(0x1000)+1)
				err := s.Reserve(lo, hi)
				if overlapsModel(lo, hi) {
					if err == nil {
						t.Logf("seed %d: overlap accepted [%#x,%#x)", seed, lo, hi)
						return false
					}
				} else if err != nil {
					t.Logf("seed %d: valid reserve rejected: %v", seed, err)
					return false
				} else {
					model = append(model, op{lo, hi})
				}
			} else {
				size := uint64(rng.Intn(0x800) + 1)
				lo := 0x10000 + uint64(rng.Intn(0x100000))
				hi := lo + uint64(rng.Intn(0x10000))
				addr, ok := s.Alloc(size, lo, hi)
				if ok {
					if addr < lo || addr > hi {
						t.Logf("seed %d: alloc %#x outside window [%#x,%#x]", seed, addr, lo, hi)
						return false
					}
					if overlapsModel(addr, addr+size) {
						t.Logf("seed %d: alloc %#x overlaps model", seed, addr)
						return false
					}
					model = append(model, op{addr, addr + size})
				}
			}
		}

		// The merged intervals must exactly cover the model.
		ivs := s.intervals()
		for i := 1; i < len(ivs); i++ {
			if ivs[i-1].Hi >= ivs[i].Lo {
				t.Logf("seed %d: unmerged or out-of-order intervals %v %v", seed, ivs[i-1], ivs[i])
				return false
			}
		}
		var want uint64
		for _, m := range model {
			want += m.hi - m.lo
		}
		if s.occupiedBytes() != want {
			t.Logf("seed %d: occupied=%d want %d", seed, s.occupiedBytes(), want)
			return false
		}
		// Every model byte is occupied.
		sort.Slice(model, func(i, j int) bool { return model[i].lo < model[j].lo })
		for _, m := range model {
			if !s.Occupied(m.lo, m.hi) {
				t.Logf("seed %d: model range [%#x,%#x) not occupied", seed, m.lo, m.hi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLeafFill bounds the structure on the two insertion patterns the
// patcher produces: strided reservations that never merge must fill
// their leaves (an ascending run opens a new leaf instead of splitting a
// full one, so no leaf is left half empty), and sequential allocations
// must collapse into one interval.
func TestLeafFill(t *testing.T) {
	const n = 50000
	for _, dir := range []string{"ascending", "descending"} {
		s := NewDefault()
		for i := 0; i < n; i++ {
			k := i
			if dir == "descending" {
				k = n - 1 - i
			}
			lo := 0x10000000 + uint64(k)*0x2000 // strided: never merges
			if err := s.Reserve(lo, lo+0x100); err != nil {
				t.Fatal(err)
			}
		}
		if s.Count() != n {
			t.Fatalf("%s: count = %d", dir, s.Count())
		}
		if want := (n + leafCap - 1) / leafCap; len(s.leaves) != want {
			t.Errorf("%s: %d leaves for %d intervals, want %d (full leaves)", dir, len(s.leaves), n, want)
		}
	}
	// Random insertion splits leaves in half: at worst every leaf is
	// half full.
	s := NewDefault()
	rng := rand.New(rand.NewSource(3))
	for _, k := range rng.Perm(n) {
		lo := 0x10000000 + uint64(k)*0x2000
		if err := s.Reserve(lo, lo+0x100); err != nil {
			t.Fatal(err)
		}
	}
	if most := 2*n/leafCap + 1; len(s.leaves) > most {
		t.Errorf("random: %d leaves for %d intervals, want <= %d", len(s.leaves), n, most)
	}
	for i, leaf := range s.leaves {
		if len(leaf) == 0 || len(leaf) > leafCap || s.first[i] != leaf[0].Lo {
			t.Fatalf("leaf %d: len %d, first %#x", i, len(leaf), s.first[i])
		}
	}
	// Sequential allocations merge to one interval.
	s2 := NewDefault()
	for i := 0; i < 10000; i++ {
		if _, ok := s2.Alloc(0x20, 0x10000000, 0x7fffffff); !ok {
			t.Fatal("alloc failed")
		}
	}
	if s2.Count() != 1 || len(s2.leaves) != 1 {
		t.Errorf("sequential allocs not merged: count=%d leaves=%d", s2.Count(), len(s2.leaves))
	}
}

func BenchmarkAllocScattered(b *testing.B) {
	s := NewDefault()
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := 0x10000000 + uint64(rng.Intn(1<<30))
		if _, ok := s.Alloc(64, lo, lo+0xffff); !ok {
			b.Fatal("alloc failed")
		}
	}
}

// BenchmarkReserveTouching is the dense case: among 4096 scattered
// runs, every reservation extends the run it touches, which must cost
// one descent and no allocation.
func BenchmarkReserveTouching(b *testing.B) {
	const runs = 4096
	s := NewDefault()
	end := make([]uint64, runs)
	for i := range end {
		end[i] = 0x10000000 + uint64(i)<<24
		if err := s.Reserve(end[i], end[i]+16); err != nil {
			b.Fatal(err)
		}
		end[i] += 16
	}
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(runs)
		if end[k]&(1<<24-1) > 1<<23 {
			b.StopTimer() // the run is about to reach its neighbour: start it over
			if err := s.Release(end[k]&^(1<<24-1), end[k]); err != nil {
				b.Fatal(err)
			}
			end[k] &^= 1<<24 - 1
			b.StartTimer()
		}
		if err := s.Reserve(end[k], end[k]+16); err != nil {
			b.Fatal(err)
		}
		end[k] += 16
	}
}
