// Package va manages the virtual address space of a binary being
// rewritten. It tracks occupied intervals (segments, trampolines,
// reserved zones) and allocates trampoline memory subject to the
// contiguous target windows that instruction punning induces.
//
// Every punned jump constrains its rel32 so that the fixed bytes form
// the most-significant suffix of the little-endian value; the set of
// reachable targets is therefore always one contiguous interval
// [lo, hi]. Allocation reduces to first-fit search for a free gap of
// the requested size inside such an interval.
//
// The interval set is one ordered sequence held in fixed-capacity
// leaves (a two-level sorted array): a binary search over the leaves'
// first keys, another inside one 1 KB leaf, and every neighbour is the
// adjacent element. Touching intervals are merged eagerly, so densely
// packed trampoline runs collapse into single entries and extending one
// is a store, not an insertion.
package va

import (
	"fmt"
	"math/bits"
	"slices"
)

// Interval is a half-open address range [Lo, Hi).
type Interval struct {
	Lo, Hi uint64
}

// Size returns the interval length in bytes.
func (iv Interval) Size() uint64 { return iv.Hi - iv.Lo }

// Contains reports whether addr lies inside the interval.
func (iv Interval) Contains(addr uint64) bool { return addr >= iv.Lo && addr < iv.Hi }

func (iv Interval) String() string { return fmt.Sprintf("[%#x,%#x)", iv.Lo, iv.Hi) }

// leafCap is the number of intervals a leaf holds: 1 KB, so an insertion
// moves at most that much and a lookup ends in a few cache lines.
const leafCap = 64

// pos addresses one interval: leaves[leaf][idx]. The position before
// the first interval is pos{0, -1}, whose successor is the first.
type pos struct{ leaf, idx int }

// Space is an occupied-interval set over a bounded address range.
//
// A Space is not safe for concurrent mutation. The pure queries
// (Floor, Ceiling, Occupied, Gaps, Intervals) only read, so they may
// run concurrently with each other; FindFree, Reserve and
// Release move the finger and count as mutation.
type Space struct {
	// leaves partition the ordered intervals; none is empty, and
	// first[i] == leaves[i][0].Lo so the top-level search reads one
	// contiguous array.
	leaves [][]Interval
	first  []uint64
	// finger is where the last FindFree, Reserve or Release ended. A
	// lookup tries it before searching and uses it only when it
	// verifies as the answer (a stale or zero finger simply does not),
	// so it changes the cost of a query and never its result:
	// FindFree's position serves the Reserve of the range it found, and
	// a bump allocation finds the interval it extended last time.
	finger pos
	// Min and Max bound allocatable addresses: allocations and
	// reservations must satisfy Min <= lo && hi <= Max.
	min, max uint64
	count    int
	occupied uint64
}

// DefaultMin is the lowest allocatable address (mirrors Linux
// mmap_min_addr: the NULL page region is never usable).
const DefaultMin = 0x10000

// DefaultMax is the highest allocatable address + 1 (the canonical
// 47-bit user address space).
const DefaultMax = 1 << 47

// New returns an empty Space allowing addresses in [min, max).
func New(min, max uint64) *Space {
	if min >= max {
		panic("va: min >= max")
	}
	return &Space{min: min, max: max}
}

// NewDefault returns a Space over the standard user address range.
func NewDefault() *Space { return New(DefaultMin, DefaultMax) }

// Min returns the lowest allocatable address.
func (s *Space) Min() uint64 { return s.min }

// Max returns one past the highest allocatable address.
func (s *Space) Max() uint64 { return s.max }

// Count returns the number of stored (merged) intervals.
func (s *Space) Count() int { return s.count }

// occupiedBytes returns the total size of all occupied intervals.
func (s *Space) occupiedBytes() uint64 { return s.occupied }

func (s *Space) at(p pos) *Interval { return &s.leaves[p.leaf][p.idx] }

// next returns the position after p in address order.
func (s *Space) next(p pos) (pos, bool) {
	if p.leaf >= len(s.leaves) {
		return p, false
	}
	if p.idx+1 < len(s.leaves[p.leaf]) {
		return pos{p.leaf, p.idx + 1}, true
	}
	if p.leaf+1 < len(s.leaves) {
		return pos{p.leaf + 1, 0}, true
	}
	return p, false
}

// locate returns the position of the interval with the greatest
// Lo <= addr: the one descent every operation makes. Its successor is
// next(p), so predecessor and successor come together. ok is false when
// no interval starts at or below addr; p is then the position before
// the first interval.
func (s *Space) locate(addr uint64) (p pos, ok bool) {
	if f := s.finger; f.idx >= 0 && f.leaf < len(s.leaves) && f.idx < len(s.leaves[f.leaf]) && s.at(f).Lo <= addr {
		if n, more := s.next(f); !more || s.at(n).Lo > addr {
			return f, true
		}
	}
	lo, hi := 0, len(s.first)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.first[m] <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return pos{0, -1}, false
	}
	leaf := s.leaves[lo-1]
	i, j := 1, len(leaf) // leaf[0].Lo is first[lo-1] <= addr
	for i < j {
		m := int(uint(i+j) >> 1)
		if leaf[m].Lo <= addr {
			i = m + 1
		} else {
			j = m
		}
	}
	return pos{lo - 1, i - 1}, true
}

// insertLeaf makes leaf the k-th leaf.
func (s *Space) insertLeaf(k int, leaf []Interval) {
	s.leaves = slices.Insert(s.leaves, k, leaf)
	s.first = slices.Insert(s.first, k, leaf[0].Lo)
}

// newLeaf returns a leaf holding ivs.
func newLeaf(ivs ...Interval) []Interval {
	return append(make([]Interval, 0, leafCap), ivs...)
}

// insertAfter stores iv, which touches nothing, directly after p and
// returns its position. Only here is memory allocated, and only when a
// leaf is full: an insertion at the edge of a full leaf goes to the
// neighbouring leaf or opens a new one (so ascending and descending
// runs fill their leaves), one in the middle splits the leaf in half.
func (s *Space) insertAfter(p pos, iv Interval) pos {
	s.count++
	if len(s.leaves) == 0 {
		s.insertLeaf(0, newLeaf(iv))
		return pos{0, 0}
	}
	li, i := p.leaf, p.idx+1
	leaf := s.leaves[li]
	if len(leaf) == leafCap {
		switch {
		case i == leafCap:
			if li+1 < len(s.leaves) && len(s.leaves[li+1]) < leafCap {
				li, i = li+1, 0
			} else {
				s.insertLeaf(li+1, newLeaf(iv))
				return pos{li + 1, 0}
			}
		case i == 0:
			if li > 0 && len(s.leaves[li-1]) < leafCap {
				li, i = li-1, len(s.leaves[li-1])
			} else {
				s.insertLeaf(li, newLeaf(iv))
				return pos{li, 0}
			}
		default:
			s.insertLeaf(li+1, newLeaf(leaf[leafCap/2:]...))
			s.leaves[li] = leaf[:leafCap/2]
			if i > leafCap/2 {
				li, i = li+1, i-leafCap/2
			}
		}
	}
	s.leaves[li] = slices.Insert(s.leaves[li], i, iv)
	if i == 0 {
		s.first[li] = iv.Lo
	}
	return pos{li, i}
}

// removeAt deletes the interval at p.
func (s *Space) removeAt(p pos) {
	s.count--
	leaf := slices.Delete(s.leaves[p.leaf], p.idx, p.idx+1)
	if len(leaf) == 0 {
		s.leaves = slices.Delete(s.leaves, p.leaf, p.leaf+1)
		s.first = slices.Delete(s.first, p.leaf, p.leaf+1)
		return
	}
	s.leaves[p.leaf] = leaf
	if p.idx == 0 {
		s.first[p.leaf] = leaf[0].Lo
	}
}

// setLo moves the start of the interval at p.
func (s *Space) setLo(p pos, lo uint64) {
	s.at(p).Lo = lo
	if p.idx == 0 {
		s.first[p.leaf] = lo
	}
}

// Reserve marks [lo, hi) as occupied. It fails if the range is empty,
// escapes the space bounds, or overlaps an existing reservation.
//
// One descent finds the predecessor and, beside it, the successor; the
// range is checked against both and a touching neighbour is extended in
// place. Only a range that touches nothing inserts an element, and only
// one that bridges two removes one.
func (s *Space) Reserve(lo, hi uint64) error {
	if lo >= hi {
		return fmt.Errorf("va: empty reservation [%#x,%#x)", lo, hi)
	}
	if lo < s.min || hi > s.max {
		return fmt.Errorf("va: reservation [%#x,%#x) outside bounds [%#x,%#x)", lo, hi, s.min, s.max)
	}
	p, left := s.locate(lo)
	if left && s.at(p).Hi > lo {
		return fmt.Errorf("va: reservation [%#x,%#x) overlaps %v", lo, hi, *s.at(p))
	}
	n, right := s.next(p)
	if right && s.at(n).Lo < hi {
		return fmt.Errorf("va: reservation [%#x,%#x) overlaps %v", lo, hi, *s.at(n))
	}
	left = left && s.at(p).Hi == lo
	right = right && s.at(n).Lo == hi
	switch {
	case left && right:
		s.at(p).Hi = s.at(n).Hi
		s.removeAt(n)
	case left:
		s.at(p).Hi = hi
	case right:
		s.setLo(n, lo)
		p = n
	default:
		p = s.insertAfter(p, Interval{lo, hi})
	}
	s.occupied += hi - lo
	s.finger = p
	return nil
}

// Occupied reports whether any byte of [lo, hi) is occupied.
func (s *Space) Occupied(lo, hi uint64) bool {
	if lo >= hi {
		return false
	}
	p, ok := s.locate(hi - 1)
	return ok && s.at(p).Hi > lo
}

// Floor returns the occupied interval with the greatest start <= addr.
func (s *Space) Floor(addr uint64) (Interval, bool) {
	p, ok := s.locate(addr)
	if !ok {
		return Interval{}, false
	}
	return *s.at(p), true
}

// Ceiling returns the occupied interval with the smallest start >= addr.
func (s *Space) Ceiling(addr uint64) (Interval, bool) {
	p, ok := s.locate(addr)
	if ok && s.at(p).Lo == addr {
		return *s.at(p), true
	}
	if p, ok = s.next(p); !ok {
		return Interval{}, false
	}
	return *s.at(p), true
}

// Alloc finds and reserves a free range of the given size whose first
// byte lies in the window [lo, hi] (inclusive), using first-fit. It
// returns the chosen address, or ok=false if the window contains no
// suitable gap.
func (s *Space) Alloc(size uint64, lo, hi uint64) (uint64, bool) {
	addr, ok := s.FindFree(size, lo, hi)
	if !ok || s.Reserve(addr, addr+size) != nil {
		return 0, false
	}
	return addr, true
}

// clampWindow narrows the window [lo, hi] of start addresses to those
// at which size bytes fit inside the space.
func (s *Space) clampWindow(size, lo, hi uint64) (uint64, uint64, bool) {
	if size == 0 || lo > hi || s.max-s.min < size {
		return 0, 0, false
	}
	lo = max(lo, s.min)
	hi = min(hi, s.max-size)
	return lo, hi, lo <= hi
}

// walkGaps calls visit with the start of every free gap of at least
// size bytes whose start lies in [lo, hi], in ascending order, and the
// position of the interval below it, until visit returns false.
func (s *Space) walkGaps(size, lo, hi uint64, visit func(addr uint64, below pos) bool) {
	lo, hi, ok := s.clampWindow(size, lo, hi)
	if !ok {
		return
	}
	cursor := lo
	p, ok := s.locate(cursor)
	if ok && s.at(p).Hi > cursor {
		cursor = s.at(p).Hi
	}
	for cursor <= hi {
		n, more := s.next(p)
		gapEnd := s.max
		if more {
			gapEnd = s.at(n).Lo
		}
		if gapEnd-cursor >= size && !visit(cursor, p) {
			return
		}
		if !more {
			return
		}
		cursor, p = s.at(n).Hi, n
	}
}

// FindFree is Alloc without the reservation: the lowest address in
// [lo, hi] at which size bytes are free. The answer depends on the
// interval set alone.
func (s *Space) FindFree(size uint64, lo, hi uint64) (addr uint64, ok bool) {
	s.walkGaps(size, lo, hi, func(a uint64, below pos) bool {
		addr, ok, s.finger = a, true, below
		return false
	})
	return addr, ok
}

// Gaps returns up to max free gaps of at least size bytes whose start
// lies within [lo, hi]. It is used by tactics that probe several
// candidate placements (guided successor eviction).
func (s *Space) Gaps(size uint64, lo, hi uint64, max int) []uint64 {
	if max <= 0 {
		return nil
	}
	var out []uint64
	s.walkGaps(size, lo, hi, func(a uint64, _ pos) bool {
		out = append(out, a)
		return len(out) < max
	})
	return out
}

// Release frees the previously reserved range [lo, hi). The range must
// be fully occupied (it may be an interior slice of a merged interval,
// which is split around it). Tactics use this to back out partially
// committed allocations.
func (s *Space) Release(lo, hi uint64) error {
	if lo >= hi {
		return fmt.Errorf("va: empty release [%#x,%#x)", lo, hi)
	}
	p, ok := s.locate(lo)
	if !ok || s.at(p).Hi < hi {
		return fmt.Errorf("va: release [%#x,%#x) not fully reserved", lo, hi)
	}
	switch iv := s.at(p); {
	case iv.Lo == lo && iv.Hi == hi:
		s.removeAt(p)
	case iv.Lo == lo:
		s.setLo(p, hi)
	case iv.Hi == hi:
		iv.Hi = lo
	default:
		rest := Interval{hi, iv.Hi}
		iv.Hi = lo
		s.insertAfter(p, rest)
	}
	s.occupied -= hi - lo
	s.finger = p
	return nil
}

// intervals returns all occupied intervals in ascending order.
func (s *Space) intervals() []Interval {
	out := make([]Interval, 0, s.count)
	for _, leaf := range s.leaves {
		out = append(out, leaf...)
	}
	return out
}

// pageCount returns the number of distinct pages of the given size
// (must be a power of two) touched by occupied intervals.
func (s *Space) pageCount(pageSize uint64) uint64 {
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		panic("va: page size must be a power of two")
	}
	shift := uint(bits.TrailingZeros64(pageSize))
	var total uint64
	for _, leaf := range s.leaves {
		for _, iv := range leaf {
			total += (iv.Hi-1)>>shift - iv.Lo>>shift + 1
		}
	}
	return total
}
