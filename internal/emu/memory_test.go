package emu

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// TestMemoryCrossPageReadWrite exercises ReadBytes/WriteBytes spans
// that straddle page boundaries, the paths the translation cache's
// fetcher and the loader depend on.
func TestMemoryCrossPageReadWrite(t *testing.T) {
	mem := NewMemory()
	// A 3-page span written in one call, starting mid-page.
	base := uint64(5*PageSize - 100)
	data := make([]byte, 2*PageSize+200)
	for i := range data {
		data[i] = byte(i * 7)
	}
	mem.WriteBytes(base, data)

	got, ok := mem.ReadBytes(base, len(data))
	if !ok {
		t.Fatal("ReadBytes reported unmapped bytes inside a written span")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip corrupted data")
	}

	// Reads that spill past the mapped region zero-fill and clear ok.
	end := base + uint64(len(data))
	if !mem.Mapped(end - 1) {
		t.Fatal("final written byte not mapped")
	}
	got, ok = mem.ReadBytes(end-4, PageSize)
	if ok {
		t.Error("ReadBytes into unmapped tail should report ok=false")
	}
	if !bytes.Equal(got[:4], data[len(data)-4:]) {
		t.Error("mapped prefix of a partially-mapped read corrupted")
	}
	for i, b := range got[4:] {
		if b != 0 {
			t.Fatalf("unmapped byte %d read as %#x, want 0", i, b)
		}
	}
}

// TestMemoryScalarCrossPage covers the scalar read/write paths (used by
// instruction operands) across a page boundary.
func TestMemoryScalarCrossPage(t *testing.T) {
	mem := NewMemory()
	addr := uint64(8*PageSize - 3) // 8-byte value spanning two pages
	mem.Map(addr, 8)
	const v = 0x1122334455667788
	if err := mem.write(addr, v, 8); err != nil {
		t.Fatal(err)
	}
	got, err := mem.read(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("cross-page scalar read = %#x, want %#x", got, v)
	}

	// A scalar read touching an unmapped page faults rather than
	// zero-filling: data accesses are strict, only fetches are lenient.
	if _, err := mem.read(20*PageSize-2, 4); err == nil {
		t.Error("scalar read across unmapped page should fault")
	}
}

// TestWriteBarrier checks the invalidation hook fires for every store
// path with the exact address/size written, and that Map (which only
// reserves zero pages) never fires it.
func TestWriteBarrier(t *testing.T) {
	mem := NewMemory()
	type ev struct{ addr, size uint64 }
	var events []ev
	mem.SetWriteBarrier(func(addr, size uint64) {
		events = append(events, ev{addr, size})
	})

	mem.Map(0x1000, 4*PageSize)
	if len(events) != 0 {
		t.Fatalf("Map fired the barrier: %v", events)
	}

	mem.WriteBytes(0x1ffe, []byte{1, 2, 3, 4}) // cross-page bulk store
	mem.WriteBytes(0x3000, nil)                // empty store: no event
	if err := mem.write(0x2ffc, 0xAABBCCDD, 4); err != nil {
		t.Fatal(err)
	}
	want := []ev{{0x1ffe, 4}, {0x2ffc, 4}}
	if len(events) != len(want) {
		t.Fatalf("barrier events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("barrier event %d = %v, want %v", i, events[i], want[i])
		}
	}

	// Removing the barrier stops the callbacks.
	mem.SetWriteBarrier(nil)
	mem.WriteBytes(0x1000, []byte{9})
	if len(events) != len(want) {
		t.Error("barrier fired after removal")
	}
}

// TestBarrierRunsBeforeStore pins the ordering contract: the barrier
// observes memory in its pre-store state, which is what lets a
// translation cache invalidate blocks decoded from the old bytes
// before they change.
func TestBarrierRunsBeforeStore(t *testing.T) {
	mem := NewMemory()
	mem.WriteBytes(0x1000, []byte{0x11})
	var seen byte
	mem.SetWriteBarrier(func(addr, size uint64) {
		b, _ := mem.ReadBytes(0x1000, 1)
		seen = b[0]
	})
	mem.WriteBytes(0x1000, []byte{0x22})
	if seen != 0x11 {
		t.Fatalf("barrier saw %#x, want pre-store value 0x11", seen)
	}
	b, _ := mem.ReadBytes(0x1000, 1)
	if b[0] != 0x22 {
		t.Fatalf("store lost: memory = %#x", b[0])
	}
}

// TestMapReservesInvisibly: Map records a reservation and nothing
// else; no reader, fault or comparison can tell a reserved page from
// the eagerly allocated zero page it replaces.
func TestMapReservesInvisibly(t *testing.T) {
	mem := NewMemory()
	const lo, size = 0x10_0000, 3*PageSize + 100 // ends mid-page 0x103
	mem.Map(lo, size)
	if len(mem.pages) != 0 {
		t.Fatalf("Map allocated %d pages", len(mem.pages))
	}
	end := uint64(lo + 4*PageSize) // one past the last reserved page

	for _, addr := range []uint64{lo, lo + PageSize + 7, end - 1} {
		if !mem.Mapped(addr) {
			t.Errorf("Mapped(%#x) = false inside the reservation", addr)
		}
	}
	for _, addr := range []uint64{lo - 1, end} {
		if mem.Mapped(addr) {
			t.Errorf("Mapped(%#x) = true outside the reservation", addr)
		}
	}
	if len(mem.pages) != 0 {
		t.Error("Mapped materialised a page")
	}

	// A reserved, never-written byte reads as zero through every reader.
	if v, err := mem.read(lo+PageSize, 8); err != nil || v != 0 {
		t.Errorf("read in the reservation = %#x, %v", v, err)
	}
	if v, err := mem.read(end-4, 4); err != nil || v != 0 {
		t.Errorf("read at the reservation's tail = %#x, %v", v, err)
	}
	if b, ok := mem.ReadBytes(lo+2*PageSize-8, 16); !ok || !bytes.Equal(b, make([]byte, 16)) {
		t.Errorf("ReadBytes across reserved pages = % x, ok=%v", b, ok)
	}
	if mem.pageFor(lo+3*PageSize, false) == nil {
		t.Error("pageFor of a reserved page is nil")
	}

	// One byte past it faults, and the error names that byte.
	_, err := mem.read(end-3, 4)
	if want := fmt.Sprintf("emu: read fault at %#x", end); err == nil || err.Error() != want {
		t.Errorf("read past the reservation: %v, want %q", err, want)
	}
	if _, err := mem.read(lo-1, 1); err == nil {
		t.Error("read one byte below the reservation did not fault")
	}

	// Touching a reserved page leaves no trace a comparison can see.
	touched, untouched := NewMachine(), NewMachine()
	for _, m := range []*Machine{touched, untouched} {
		m.Mem.Map(lo, size)
		m.Mem.WriteBytes(0x5000, []byte{1, 2, 3})
	}
	if _, err := touched.Mem.read(lo+8, 8); err != nil {
		t.Fatal(err)
	}
	if err := touched.Mem.write(lo+PageSize, 0, 8); err != nil {
		t.Fatal(err)
	}
	if addr, diff := DiffMemory(touched.Mem, untouched.Mem); diff {
		t.Errorf("DiffMemory reports %#x between a touched and an untouched reservation", addr)
	}
	if addr, diff := DiffMemory(untouched.Mem, touched.Mem); diff {
		t.Errorf("DiffMemory (swapped) reports %#x", addr)
	}
}

// TestMapCoalesces: a bump allocator calls Map once per allocation;
// the reservations must stay one range so a lookup stays a binary
// search over a handful of entries. Overlapping, contained, bridging
// and out-of-order calls merge too; a gap of one page does not.
func TestMapCoalesces(t *testing.T) {
	mem := NewMemory()
	heap := NewBumpAllocator(0x4_0000_0000, 1<<30)
	m := &Machine{Mem: mem}
	for i := 0; i < 10_000; i++ {
		if _, err := heap.Alloc(m, 64); err != nil {
			t.Fatal(err)
		}
	}
	if len(mem.resv) != 1 {
		t.Fatalf("10 000 adjacent 64-byte Map calls left %d ranges, want 1", len(mem.resv))
	}
	if want := (pageRange{0x4_0000_0000 / PageSize, (0x4_0000_0000 + 640_000 - 1) / PageSize}); mem.resv[0] != want {
		t.Errorf("range = %+v, want %+v", mem.resv[0], want)
	}

	mem = NewMemory()
	mem.Map(10*PageSize, PageSize)   // [10]
	mem.Map(14*PageSize, 2*PageSize) // [10] [14,15]
	mem.Map(12*PageSize, 1)          // [10] [12] [14,15]: one-page gaps stay
	if len(mem.resv) != 3 {
		t.Fatalf("ranges = %+v, want three", mem.resv)
	}
	mem.Map(14*PageSize+5, 10)     // contained: no change
	mem.Map(11*PageSize, PageSize) // bridges [10] and [12]
	mem.Map(0, 0)                  // empty: no change
	if want := []pageRange{{10, 12}, {14, 15}}; !slices.Equal(mem.resv, want) {
		t.Fatalf("ranges = %+v, want %+v", mem.resv, want)
	}
	mem.Map(9*PageSize+1, 8*PageSize) // swallows everything, both ends extended
	if want := []pageRange{{9, 17}}; !slices.Equal(mem.resv, want) {
		t.Fatalf("ranges = %+v, want %+v", mem.resv, want)
	}
	if mem.Mapped(8*PageSize) || !mem.Mapped(17*PageSize) || mem.Mapped(18*PageSize) {
		t.Error("Mapped disagrees with the merged range")
	}
}
