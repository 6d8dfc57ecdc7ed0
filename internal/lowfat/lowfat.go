// Package lowfat implements the low-fat-pointer heap hardening used by
// the paper's §6.3 application: bounds information is encoded in the
// pointer's bit representation by allocating each size class from its
// own aligned region, so base(p) is computable from p alone, and a
// 16-byte redzone at each object's start turns spatial memory errors
// into detectable events via the check p − base(p) >= 16.
//
// Substitution note (DESIGN.md §1): size classes are restricted to
// powers of two so base(p) is a mask rather than a magic-number
// division, and the allocator replaces glibc malloc through the
// emulator's runtime binding (the paper uses LD_PRELOAD of
// liblowfat.so, modified to insert redzones).
package lowfat

import (
	"fmt"

	"e9patch/internal/emu"
	"e9patch/internal/trampoline"
	"e9patch/internal/x86"
)

// Layout constants.
const (
	// RegionShift: each region spans 2^32 bytes; the region index is
	// p >> RegionShift.
	RegionShift = 32
	// FirstRegion is the region index of size class 0.
	FirstRegion = 16
	// NumClasses is the number of size classes (16 B .. 512 KB).
	NumClasses = 16
	// MinSize is the smallest object size class.
	MinSize = 16
	// Redzone is the per-object redzone in bytes.
	Redzone = 16

	// TableAddr is the virtual address of the mask table (one uint64
	// per class: classSize-1). It lives in the low 2 GB so the check
	// can use 32-bit absolute addressing — one fewer scratch register
	// and no movabs per check.
	TableAddr uint64 = 0x0900_0000
	// ViolationAddr is the virtual address of the violation counter.
	ViolationAddr uint64 = 0x0900_0100
)

// ClassSize returns the object size of class c.
func ClassSize(c int) uint64 { return MinSize << uint(c) }

// RegionBase returns the base address of class c's region.
func RegionBase(c int) uint64 { return uint64(FirstRegion+c) << RegionShift }

// ClassFor returns the smallest class whose objects fit size+Redzone.
func ClassFor(size uint64) (int, error) {
	need := size + Redzone
	for c := 0; c < NumClasses; c++ {
		if ClassSize(c) >= need {
			return c, nil
		}
	}
	return 0, fmt.Errorf("lowfat: size %d exceeds the largest class", size)
}

// Base returns base(p): the start of the object containing p, or p
// itself when p is not a low-fat pointer.
func Base(p uint64) uint64 {
	idx := p >> RegionShift
	if idx < FirstRegion || idx >= FirstRegion+NumClasses {
		return p
	}
	return p &^ (ClassSize(int(idx-FirstRegion)) - 1)
}

// isLowFat reports whether p lies in a low-fat region.
func isLowFat(p uint64) bool {
	idx := p >> RegionShift
	return idx >= FirstRegion && idx < FirstRegion+NumClasses
}

// Allocator is the low-fat heap: bump allocation per size-class
// region, objects aligned to their class size, payload after the
// redzone.
type Allocator struct {
	next [NumClasses]uint64
	// Allocs counts allocations per class (diagnostics).
	Allocs [NumClasses]uint64
}

// Alloc returns the payload pointer for a new object of the given
// size; the first Redzone bytes of the object slot are the redzone.
func (al *Allocator) Alloc(m *emu.Machine, size uint64) (uint64, error) {
	c, err := ClassFor(size)
	if err != nil {
		return 0, err
	}
	cs := ClassSize(c)
	if (al.next[c]+1)*cs > 1<<RegionShift {
		return 0, fmt.Errorf("lowfat: region for class %d exhausted", c)
	}
	base := RegionBase(c) + al.next[c]*cs
	al.next[c]++
	al.Allocs[c]++
	m.Mem.Map(base, cs)
	return base + Redzone, nil
}

// Install writes the mask table and violation counter into the
// machine's memory and binds the allocator at the given malloc
// address. It is the liblowfat.so LD_PRELOAD analogue.
func Install(m *emu.Machine, mallocAddr, freeAddr uint64) *Allocator {
	table := make([]byte, NumClasses*8)
	for c := 0; c < NumClasses; c++ {
		mask := ClassSize(c) - 1
		for b := 0; b < 8; b++ {
			table[c*8+b] = byte(mask >> (8 * uint(b)))
		}
	}
	m.Mem.WriteBytes(TableAddr, table)
	m.Mem.Map(ViolationAddr, 8)

	al := &Allocator{}
	m.Runtime[mallocAddr] = func(m *emu.Machine) error {
		p, err := al.Alloc(m, m.Regs[x86.RDI])
		if err != nil {
			return err
		}
		m.Regs[x86.RAX] = p
		return nil
	}
	if freeAddr != 0 {
		m.Runtime[freeAddr] = func(m *emu.Machine) error { return nil }
	}
	return al
}

// Violations reads the violation counter from the machine.
func Violations(m *emu.Machine) uint64 {
	b, ok := m.Mem.ReadBytes(ViolationAddr, 8)
	if !ok {
		return 0
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// CheckTemplate is the trampoline template for hardened heap writes:
// it computes the written-to pointer with lea, applies the redzone
// check p − base(p) >= Redzone for low-fat pointers, and either counts
// or traps on violation before executing the displaced store (§6.3).
type CheckTemplate struct {
	// Trap selects ud2 on violation instead of counting.
	Trap bool
}

var _ trampoline.Template = CheckTemplate{}

// AppendCode implements trampoline.Template.
func (c CheckTemplate) AppendCode(dst []byte, inst *x86.Inst, at uint64) ([]byte, error) {
	mem, ok := inst.MemOperand()
	if !ok {
		return nil, fmt.Errorf("lowfat: instruction at %#x has no memory operand", inst.Addr)
	}
	s, ok := trampoline.PickScratch(inst, 2)
	if !ok {
		return nil, fmt.Errorf("lowfat: no scratch registers free for % x", inst.Bytes)
	}
	a := x86.AppendAsm(dst, at)
	a.PushReg(s[0])
	a.PushReg(s[1])
	a.Pushfq()

	a.Lea(s[0], mem) // p
	a.MovRegReg64(s[1], s[0])
	a.ShrRegImm64(s[1], RegionShift) // region index
	okLbl := a.NewLabel()
	a.CmpRegImm64(s[1], FirstRegion)
	a.JccShort(x86.CondB, okLbl)
	a.CmpRegImm64(s[1], FirstRegion+NumClasses)
	a.JccShort(x86.CondAE, okLbl)
	// mask = table[idx - FirstRegion] via 32-bit absolute addressing.
	a.MovRegMem64(s[1], x86.Mem{
		Base: x86.NoReg, Index: s[1], Scale: 8,
		Disp: int32(TableAddr) - FirstRegion*8,
	})
	a.AndRegReg64(s[0], s[1]) // p - base(p)
	a.CmpRegImm64(s[0], Redzone)
	a.JccShort(x86.CondAE, okLbl)
	// Violation.
	if c.Trap {
		a.Ud2()
	} else {
		a.AddMemImm8x64(x86.MAbs(int32(ViolationAddr)), 1)
	}
	a.Bind(okLbl)

	a.Popfq()
	a.PopReg(s[1])
	a.PopReg(s[0])
	if err := trampoline.EmitDisplaced(&a, inst); err != nil {
		return nil, err
	}
	return a.Finish()
}

// ReserveVA returns the extra ranges a hardened rewrite must keep free.
func ReserveVA() [][2]uint64 {
	return [][2]uint64{{TableAddr &^ 0xFFF, (ViolationAddr + 0x1000) &^ 0xFFF}}
}
