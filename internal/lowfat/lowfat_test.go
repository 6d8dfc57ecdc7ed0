package lowfat

import (
	"testing"
	"testing/quick"

	"e9patch/internal/emu"
	"e9patch/internal/trampoline"
	"e9patch/internal/x86"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		size uint64
		want int
	}{
		{1, 1},  // 1+16 -> 32
		{16, 1}, // 32
		{17, 2}, // 64
		{48, 2}, // 64
		{49, 3}, // 128
		{1000, 6},
		{1 << 18, 15},
	}
	for _, tc := range cases {
		c, err := ClassFor(tc.size)
		if err != nil {
			t.Fatalf("size %d: %v", tc.size, err)
		}
		if c != tc.want {
			t.Errorf("ClassFor(%d) = %d (size %d), want %d", tc.size, c, ClassSize(c), tc.want)
		}
	}
	if _, err := ClassFor(1 << 20); err == nil {
		t.Error("oversized allocation accepted")
	}
}

func TestAllocatorGeometry(t *testing.T) {
	m := emu.NewMachine()
	al := Install(m, 0x2_0000_0100, 0x2_0000_0200)
	p1, err := al.Alloc(m, 100) // class 3 (128)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := al.Alloc(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !isLowFat(p1) || !isLowFat(p2) {
		t.Fatal("allocations not in low-fat regions")
	}
	if p1-Base(p1) != Redzone || p2-Base(p2) != Redzone {
		t.Errorf("payload not immediately after redzone: %#x %#x", p1-Base(p1), p2-Base(p2))
	}
	if Base(p2)-Base(p1) != ClassSize(3) {
		t.Errorf("objects not class-size apart: %#x", Base(p2)-Base(p1))
	}
	// The redzone predicate holds for every payload byte and fails
	// for every redzone byte.
	for off := uint64(0); off < ClassSize(3); off++ {
		p := Base(p1) + off
		inRedzone := p-Base(p) < Redzone
		if inRedzone != (off < Redzone) {
			t.Fatalf("redzone predicate wrong at offset %d", off)
		}
	}
}

func TestBaseProperty(t *testing.T) {
	f := func(classRaw uint8, slotRaw uint16, offRaw uint16) bool {
		c := int(classRaw) % NumClasses
		cs := ClassSize(c)
		slot := uint64(slotRaw) % (1 << 10)
		off := uint64(offRaw) % cs
		p := RegionBase(c) + slot*cs + off
		return Base(p) == RegionBase(c)+slot*cs && isLowFat(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Non-low-fat pointers are their own base.
	for _, p := range []uint64{0x400000, 0x7FFF_FFEF_0000, 0x2_0000_0000} {
		if Base(p) != p || isLowFat(p) {
			t.Errorf("pointer %#x misclassified", p)
		}
	}
}

// runCheck executes the CheckTemplate trampoline for a store through
// RBX pointing at p, returning violations and machine error.
func runCheck(t *testing.T, p uint64, trap bool) (uint64, error) {
	t.Helper()
	// The displaced instruction: mov [rbx], rax.
	a := x86.NewAsm(0x401000)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX)
	instCode := a.MustFinish()
	inst, err := x86.Decode(instCode, 0x401000)
	if err != nil {
		t.Fatal(err)
	}

	tmpl := CheckTemplate{Trap: trap}
	code, err := tmpl.AppendCode(nil, &inst, 0xA100000)
	if err != nil {
		t.Fatal(err)
	}
	sized, err := tmpl.AppendCode(nil, &inst, inst.Addr)
	if err != nil || len(sized) != len(code) {
		t.Fatalf("size mismatch: %d vs %d (%v)", len(sized), len(code), err)
	}

	m := emu.NewMachine()
	Install(m, 0x2_0000_0100, 0)
	m.Mem.WriteBytes(0xA100000, code)
	// Landing pad after the displaced instruction: halt.
	m.Mem.WriteBytes(0x401003, []byte{0xF4})
	m.Mem.Map(p&^0xFFF, 0x2000)
	m.SetupStack(0x7ff000, 0x4000)
	m.Regs[x86.RBX] = p
	m.Regs[x86.RAX] = 0xDEAD
	m.RIP = 0xA100000
	runErr := m.Run(1000)
	return Violations(m), runErr
}

func TestCheckTemplatePassesLegitWrites(t *testing.T) {
	m := emu.NewMachine()
	al := &Allocator{}
	p, err := al.Alloc(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []uint64{p, p + 8, p + 63} {
		v, err := runCheck(t, q, false)
		if err != nil {
			t.Fatalf("write to %#x: %v", q, err)
		}
		if v != 0 {
			t.Errorf("false positive at %#x", q)
		}
	}
}

func TestCheckTemplateCatchesRedzone(t *testing.T) {
	m := emu.NewMachine()
	al := &Allocator{}
	p, err := al.Alloc(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	base := Base(p)
	for _, q := range []uint64{base, base + 8, base + Redzone - 1} {
		v, err := runCheck(t, q, false)
		if err != nil {
			t.Fatalf("write to %#x: %v", q, err)
		}
		if v != 1 {
			t.Errorf("redzone write at %#x not detected (violations=%d)", q, v)
		}
	}
	// Overflow into the *next* object's redzone is also caught.
	q := base + ClassSize(3)
	if v, err := runCheck(t, q, false); err != nil || v != 1 {
		t.Errorf("overflow write at %#x: violations=%d err=%v", q, v, err)
	}
}

func TestCheckTemplateIgnoresForeignPointers(t *testing.T) {
	for _, q := range []uint64{0x500000, 0x7FF0_0000_0000} {
		v, err := runCheck(t, q, false)
		if err != nil {
			t.Fatalf("write to %#x: %v", q, err)
		}
		if v != 0 {
			t.Errorf("non-low-fat pointer %#x flagged", q)
		}
	}
}

func TestCheckTemplateTrap(t *testing.T) {
	m := emu.NewMachine()
	al := &Allocator{}
	p, _ := al.Alloc(m, 64)
	_, err := runCheck(t, Base(p), true)
	if err == nil {
		t.Fatal("trap mode did not fault on redzone write")
	}
}

func TestCheckScratchAvoidsOperands(t *testing.T) {
	a := x86.NewAsm(0)
	a.MovMemReg64(x86.MIdx(x86.RAX, x86.RCX, 8, 0), x86.RDX)
	code := a.MustFinish()
	inst, _ := x86.Decode(code, 0)
	s, ok := trampoline.PickScratch(&inst, 2)
	if !ok {
		t.Fatal("PickScratch failed on a two-register operand")
	}
	for _, r := range s {
		if r == x86.RAX || r == x86.RCX {
			t.Errorf("scratch %v collides with operand", r)
		}
	}
}
