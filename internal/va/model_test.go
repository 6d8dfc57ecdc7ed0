package va

import (
	"math/rand"
	"reflect"
	"testing"
)

// byteModel is the brute-force oracle: one flag per address of a small
// space. Every answer is computed by scanning it.
type byteModel struct {
	min, max uint64
	occ      []bool // occ[a-min]
}

func newByteModel(min, max uint64) *byteModel {
	return &byteModel{min: min, max: max, occ: make([]bool, max-min)}
}

func (m *byteModel) free(lo, hi uint64) bool {
	for a := lo; a < hi; a++ {
		if m.occ[a-m.min] {
			return false
		}
	}
	return true
}

func (m *byteModel) full(lo, hi uint64) bool {
	for a := lo; a < hi; a++ {
		if !m.occ[a-m.min] {
			return false
		}
	}
	return true
}

func (m *byteModel) set(lo, hi uint64, v bool) {
	for a := lo; a < hi; a++ {
		m.occ[a-m.min] = v
	}
}

// intervals returns the maximal occupied runs.
func (m *byteModel) intervals() []Interval {
	out := []Interval{}
	for a := m.min; a < m.max; a++ {
		if !m.occ[a-m.min] {
			continue
		}
		lo := a
		for a < m.max && m.occ[a-m.min] {
			a++
		}
		out = append(out, Interval{lo, a})
	}
	return out
}

// window clamps a start-address window the way the contract states it:
// starts lie in [lo, hi] and the whole allocation inside [min, max).
func (m *byteModel) window(size, lo, hi uint64) (uint64, uint64, bool) {
	if size == 0 || lo > hi || m.max-m.min < size {
		return 0, 0, false
	}
	if lo < m.min {
		lo = m.min
	}
	if hi > m.max-size {
		hi = m.max - size
	}
	return lo, hi, lo <= hi
}

// findFree is first-fit by definition: the lowest start in the window
// with size free bytes.
func (m *byteModel) findFree(size, lo, hi uint64) (uint64, bool) {
	lo, hi, ok := m.window(size, lo, hi)
	if !ok {
		return 0, false
	}
	for a := lo; a <= hi; a++ {
		if m.free(a, a+size) {
			return a, true
		}
	}
	return 0, false
}

// gaps lists the starts of the maximal free runs, cut at the window's
// lower edge, that begin inside the window and hold size bytes.
func (m *byteModel) gaps(size, lo, hi uint64, max int) []uint64 {
	lo, hi, ok := m.window(size, lo, hi)
	if !ok || max <= 0 {
		return nil
	}
	var out []uint64
	for a := lo; a <= hi && len(out) < max; a++ {
		if m.occ[a-m.min] || (a > lo && !m.occ[a-1-m.min]) {
			continue // not the start of a free run
		}
		end := a
		for end < m.max && !m.occ[end-m.min] {
			end++
		}
		if end-a >= size {
			out = append(out, a)
		}
	}
	return out
}

// checkAgainst compares every query of s with the model.
func checkAgainst(t *testing.T, s *Space, m *byteModel, rng *rand.Rand, probes int) {
	t.Helper()
	ivs := m.intervals()
	if got := s.Intervals(); !reflect.DeepEqual(got, ivs) {
		t.Fatalf("Intervals = %v, model %v", got, ivs)
	}
	var bytes uint64
	for _, iv := range ivs {
		bytes += iv.Size()
	}
	if s.Count() != len(ivs) || s.OccupiedBytes() != bytes {
		t.Fatalf("Count %d OccupiedBytes %d, model %d / %d", s.Count(), s.OccupiedBytes(), len(ivs), bytes)
	}
	span := int(m.max - m.min)
	for i := 0; i < probes; i++ {
		// Windows reach past both bounds so the clamps are exercised.
		lo := m.min - 8 + uint64(rng.Intn(span+16))
		hi := lo + uint64(rng.Intn(span/2))
		size := uint64(rng.Intn(40))
		if i%7 == 3 {
			size = uint64(rng.Intn(span))
		}

		wantA, wantOK := m.findFree(size, lo, hi)
		if a, ok := s.FindFree(size, lo, hi); a != wantA || ok != wantOK {
			t.Fatalf("FindFree(%d, %#x, %#x) = %#x %v, model %#x %v", size, lo, hi, a, ok, wantA, wantOK)
		}
		limit := rng.Intn(6)
		if got, want := s.Gaps(size, lo, hi, limit), m.gaps(size, lo, hi, limit); !reflect.DeepEqual(got, want) {
			t.Fatalf("Gaps(%d, %#x, %#x, %d) = %#x, model %#x", size, lo, hi, limit, got, want)
		}

		qlo, qhi := max(lo, m.min), min(hi, m.max)
		if got, want := s.Occupied(qlo, qhi), qlo < qhi && !m.free(qlo, qhi); got != want {
			t.Fatalf("Occupied(%#x, %#x) = %v, model %v", qlo, qhi, got, want)
		}

		var floor, ceil Interval
		var haveFloor, haveCeil bool
		for _, iv := range ivs {
			if iv.Lo <= lo {
				floor, haveFloor = iv, true
			}
			if iv.Lo >= lo && !haveCeil {
				ceil, haveCeil = iv, true
			}
		}
		if iv, ok := s.Floor(lo); iv != floor || ok != haveFloor {
			t.Fatalf("Floor(%#x) = %v %v, model %v %v", lo, iv, ok, floor, haveFloor)
		}
		if iv, ok := s.Ceiling(lo); iv != ceil || ok != haveCeil {
			t.Fatalf("Ceiling(%#x) = %v %v, model %v %v", lo, iv, ok, ceil, haveCeil)
		}
	}
}

// mutate applies one random Reserve or Release to both s and m and
// checks that they agree on whether it is legal.
func mutate(t *testing.T, s *Space, m *byteModel, rng *rand.Rand, maxLen int) {
	t.Helper()
	span := int(m.max - m.min)
	switch op := rng.Intn(10); {
	case op < 5: // reserve, anywhere (out of bounds and empty included)
		lo := m.min - 4 + uint64(rng.Intn(span+8))
		hi := lo + uint64(rng.Intn(maxLen+1))
		legal := lo < hi && lo >= m.min && hi <= m.max && m.free(lo, hi)
		if err := s.Reserve(lo, hi); (err == nil) != legal {
			t.Fatalf("Reserve(%#x, %#x): err %v, model legal %v", lo, hi, err, legal)
		}
		if legal {
			m.set(lo, hi, true)
		}
	case op < 6: // reserve exactly a free run, or what is left of it: touches both sides
		if a, ok := m.findFree(1, m.min+uint64(rng.Intn(span)), m.max); ok {
			hi := a
			for hi < m.max && !m.occ[hi-m.min] && hi-a < uint64(maxLen) {
				hi++
			}
			if err := s.Reserve(a, hi); err != nil {
				t.Fatalf("Reserve(%#x, %#x) of a free run: %v", a, hi, err)
			}
			m.set(a, hi, true)
		}
	case op < 9: // release part of an existing interval
		ivs := m.intervals()
		if len(ivs) == 0 {
			return
		}
		iv := ivs[rng.Intn(len(ivs))]
		lo, hi := iv.Lo, iv.Hi
		switch mode := rng.Intn(4); {
		case mode == 1 && iv.Size() > 1: // prefix
			hi = lo + 1 + uint64(rng.Intn(int(iv.Size()-1)))
		case mode == 2 && iv.Size() > 1: // suffix
			lo = hi - 1 - uint64(rng.Intn(int(iv.Size()-1)))
		case mode == 3 && iv.Size() > 2: // interior
			lo = iv.Lo + 1 + uint64(rng.Intn(int(iv.Size()-2)))
			hi = lo + 1 + uint64(rng.Intn(int(iv.Hi-lo-1)))
		}
		if err := s.Release(lo, hi); err != nil {
			t.Fatalf("Release(%#x, %#x) inside %v: %v", lo, hi, iv, err)
		}
		m.set(lo, hi, false)
	default: // release anywhere: legal only when fully occupied
		lo := m.min + uint64(rng.Intn(span))
		hi := min(lo+uint64(rng.Intn(maxLen+1)), m.max)
		legal := lo < hi && m.full(lo, hi)
		if err := s.Release(lo, hi); (err == nil) != legal {
			t.Fatalf("Release(%#x, %#x): err %v, model legal %v", lo, hi, err, legal)
		}
		if legal {
			m.set(lo, hi, false)
		}
	}
}

// TestSpaceModel interleaves every operation and checks every query
// against the byte-set oracle after each step. In particular FindFree
// must return the lowest free address of its window or false exactly
// when there is none.
func TestSpaceModel(t *testing.T) {
	for _, tc := range []struct {
		name          string
		span          uint64
		steps, maxLen int
	}{
		{"coarse", 1 << 10, 1500, 48},
		// Short intervals in a wide space: hundreds of them, so leaves
		// split, empty and are removed under the checks.
		{"fine", 1 << 13, 4000, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				const min = 0x10000
				s, m := New(min, min+tc.span), newByteModel(min, min+tc.span)
				maxLeaves := 0
				for i := 0; i < tc.steps; i++ {
					mutate(t, s, m, rng, tc.maxLen)
					checkAgainst(t, s, m, rng, 3)
					if len(s.leaves) > maxLeaves {
						maxLeaves = len(s.leaves)
					}
				}
				checkAgainst(t, s, m, rng, 300)
				if tc.name == "fine" && maxLeaves < 4 {
					t.Errorf("seed %d: at most %d leaves, the history never split one", seed, maxLeaves)
				}
			}
		})
	}
}

// TestReserveTouching pins the in-place cases: a reservation touching
// its left neighbour, its right neighbour, or both leaves one interval,
// including across a leaf boundary.
func TestReserveTouching(t *testing.T) {
	s := NewDefault()
	mustReserve(t, s, 0x500100, 0x500200)
	mustReserve(t, s, 0x500200, 0x500280) // touches on the left
	mustReserve(t, s, 0x500080, 0x500100) // touches on the right
	if got := s.Intervals(); !reflect.DeepEqual(got, []Interval{{0x500080, 0x500280}}) {
		t.Fatalf("after left and right touch: %v", got)
	}
	mustReserve(t, s, 0x500300, 0x500400)
	mustReserve(t, s, 0x500280, 0x500300) // bridges both
	if got := s.Intervals(); !reflect.DeepEqual(got, []Interval{{0x500080, 0x500400}}) {
		t.Fatalf("after bridge: %v", got)
	}
	if s.Count() != 1 || s.OccupiedBytes() != 0x380 {
		t.Errorf("count %d, occupied %#x", s.Count(), s.OccupiedBytes())
	}

	// Fill two leaves exactly, then bridge the pair that straddles the
	// leaf boundary: the successor is the next leaf's first element.
	s = NewDefault()
	for i := 0; i < 2*leafCap; i++ {
		lo := 0x600000 + uint64(i)*0x100
		mustReserve(t, s, lo, lo+0x80)
	}
	if len(s.leaves) != 2 {
		t.Fatalf("%d leaves, want 2", len(s.leaves))
	}
	edge := uint64(0x600000 + (leafCap-1)*0x100)
	mustReserve(t, s, edge+0x80, edge+0x100)
	if s.Count() != 2*leafCap-1 || !s.Occupied(edge, edge+0x180) || len(s.leaves[1]) != leafCap-1 {
		t.Errorf("bridge across leaves: count %d, leaf sizes %d/%d", s.Count(), len(s.leaves[0]), len(s.leaves[1]))
	}
	if iv, _ := s.Floor(edge + 0x150); iv != (Interval{edge, edge + 0x180}) {
		t.Errorf("bridged interval = %v", iv)
	}
	if s.first[1] != s.leaves[1][0].Lo {
		t.Errorf("first[1] = %#x, leaf starts at %#x", s.first[1], s.leaves[1][0].Lo)
	}
}
