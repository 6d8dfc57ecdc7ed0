package verify

import (
	"cmp"
	"encoding/binary"
	"slices"

	"e9patch/internal/elf64"
	"e9patch/internal/loader"
	"e9patch/internal/x86"
)

// image is the memory the table maps, as the loader lays it out: each
// row places one physical block at a block-aligned link address.
type image struct {
	blob *loader.Blob
	// rows maps a block's link address to its row.
	rows map[uint64]int
	// segs are the page-rounded input segments, which the loader maps
	// over any row.
	segs [][2]uint64
	// owner[{phys, page}][o] is 1 + the row through which byte o of
	// that page of physical block phys was reached, 0 while unreached.
	owner map[[2]uint64]*[elf64.PageSize]int32
	// reached marks the rows with a reached byte.
	reached []bool
}

// at returns the row that maps addr and addr's offset in its block;
// ok is false for an address no row maps or a page of an input
// segment.
func (m *image) at(addr uint64) (row int, o uint64, ok bool) {
	bs := m.blob.BlockSize
	row, ok = m.rows[addr-addr%bs]
	if !ok || inRanges(m.segs, addr) {
		return 0, 0, false
	}
	return row, addr % bs, true
}

// read copies the mapped bytes from addr on into buf, stopping at the
// first unmapped one, and returns how many it copied.
func (m *image) read(addr uint64, buf []byte) int {
	for i := range buf {
		row, o, ok := m.at(addr + uint64(i))
		if !ok {
			return i
		}
		buf[i] = m.blob.Blocks[m.blob.Mappings[row].Phys][o]
	}
	return len(buf)
}

// table decodes the appended table for check (d), and checks its rows
// on their own; nil when there is no table to read.
func (v *verifier) table(output []byte) *image {
	data, ok := elf64.AppendedBlob(output)
	if !ok {
		v.r.fail('d', "the output has no appended table")
		return nil
	}
	blob, err := loader.Decode(data)
	if err != nil {
		v.r.fail('d', "the appended table does not decode: %v", err)
		return nil
	}
	m := &image{blob: blob, rows: make(map[uint64]int, len(blob.Mappings)), segs: v.segs,
		owner: map[[2]uint64]*[elf64.PageSize]int32{}, reached: make([]bool, len(blob.Mappings))}
	v.r.Rows = len(blob.Mappings)
	for i, mp := range blob.Mappings {
		if mp.Vaddr%blob.BlockSize != 0 {
			v.r.fail('d', "row %d maps %#x, which is not block-aligned", i, mp.Vaddr)
			return nil
		}
		if _, dup := m.rows[mp.Vaddr]; dup {
			v.r.fail('d', "block %#x is mapped twice", mp.Vaddr)
		}
		m.rows[mp.Vaddr] = i
		if blob.BlockSize == elf64.PageSize && inRanges(v.segs, mp.Vaddr) {
			v.r.fail('d', "row %d maps page %#x of an input segment", i, mp.Vaddr)
		}
	}
	return m
}

// image reports whether [lo, hi) overlaps an injected image.
func (v *verifier) image(lo, hi uint64) bool {
	for _, r := range v.cfg.Images {
		if lo < r[1] && r[0] < hi {
			return true
		}
	}
	return false
}

// trace is the rest of check (d). It decodes the trampoline code from
// every root, following direct jumps and calls that land in mapped
// memory, until the code leaves the table or stops falling through.
// Every byte it decodes must be mapped, and is claimed for its row in
// the physical block behind it. Then every dispatch entry must belong
// to an int3 patch, and every row must have been reached.
func (v *verifier) trace(m *image) {
	v.follow(m)
	keys := make([]uint64, 0, len(m.blob.SigTab))
	for k := range m.blob.SigTab {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !v.int3s[k] {
			v.r.fail('d', "dispatch entry for %#x, which holds no int3 patch", k)
		}
	}
	for i, mp := range m.blob.Mappings {
		if !m.reached[i] && !v.image(mp.Vaddr, mp.Vaddr+m.blob.BlockSize) {
			v.r.fail('d', "row %d maps block %#x, which no jump reaches", i, mp.Vaddr)
		}
	}
}

// follow decodes the code the roots reach.
func (v *verifier) follow(m *image) {
	// A displaced branch keeps its target, so a trampoline may jump
	// wherever some instruction of the input did.
	var orig map[uint64]bool
	origTarget := func(t uint64) bool {
		if orig == nil {
			orig = v.programTargets()
		}
		return orig[t]
	}
	seen := map[uint64]bool{}
	work := v.roots
	var inst x86.Inst
	var buf [15]byte
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		if v.image(a, a+1) {
			continue
		}
		if _, _, ok := m.at(a); !ok {
			v.r.fail('d', "a jump reaches %#x, which the table does not map", a)
			continue
		}
		for !seen[a] {
			seen[a] = true
			n := m.read(a, buf[:])
			if err := x86.DecodeInto(&inst, buf[:n], a); err != nil {
				if n < len(buf) {
					v.r.fail('d', "trampoline code at %#x runs into unmapped memory at %#x", a, a+uint64(n))
				} else {
					v.r.fail('d', "trampoline code at %#x does not decode: %v", a, err)
				}
				break
			}
			v.claim(m, a, inst.Len)
			if inst.IsDirectBranch() {
				t := inst.Target()
				switch _, _, mapped := m.at(t); {
				case origTarget(t):
					// A displaced branch's own target, which is the
					// program's control flow even where a trampoline
					// now lies.
				case mapped || v.image(t, t+1):
					work = append(work, t)
				case inRanges(v.segs, t), inst.IsCall():
					// Back into the program, or a runtime call.
				default:
					v.r.fail('d', "trampoline branch at %#x reaches %#x, which the table does not map", a, t)
				}
			}
			a += uint64(inst.Len)
			// A displaced int3 stays a trap (trampoline.Empty): it
			// ends its code like a jump.
			if inst.Attrs&(x86.AttrStop|x86.AttrInt3) != 0 {
				// int3 padding after the code's last instruction may be
				// its trampoline's, and reach into the next row; or
				// another trampoline's, merged onto the same physical
				// block. It marks its row reached, and claims no byte.
				for n := m.read(a, buf[:1]); n == 1 && buf[0] == 0xCC; n = m.read(a, buf[:1]) {
					row, _, _ := m.at(a)
					m.reached[row] = true
					a++
				}
				break
			}
		}
	}
}

// epilogueWalk is how far past a branch target the patcher's epilogues
// copy the input's code (internal/patch/epilogue.go), the terminal
// instruction included.
const epilogueWalk = 32

// programTargets returns the targets of the input's direct branches:
// those of the universe's instructions and, closed under the same
// rule, those of the branches decoded forward from each target that is
// not a boundary of the universe. An epilogue copies the code at a
// target T as the processor decodes it from T, up to its first control
// transfer within epilogueWalk bytes, and displaces that terminal with
// its target: where T lies inside an instruction of the universe the
// terminal is none of the universe's branches, yet its target is the
// program's control flow as much as theirs.
func (v *verifier) programTargets() map[uint64]bool {
	orig := map[uint64]bool{}
	var work []uint64
	add := func(t uint64) {
		if !orig[t] {
			orig[t] = true
			work = append(work, t)
		}
	}
	for i := range v.univ {
		if l := &v.univ[i]; l.RelSize() != 0 && l.Attrs&(x86.AttrJump|x86.AttrCondJump|x86.AttrCall) != 0 {
			b := l.Bytes()
			end := l.Addr + uint64(l.Len)
			if l.RelSize() == 1 {
				add(end + uint64(int64(int8(b[len(b)-1]))))
			} else {
				add(end + uint64(int64(int32(binary.LittleEndian.Uint32(b[len(b)-4:])))))
			}
		}
	}
	var inst x86.Inst
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if t < v.textAddr || t-v.textAddr >= uint64(len(v.text)) || v.boundary(t) {
			continue
		}
		for a := t; a-t < epilogueWalk && a-v.textAddr < uint64(len(v.text)); a += uint64(inst.Len) {
			if x86.DecodeInto(&inst, v.text[a-v.textAddr:], a) != nil {
				break
			}
			if inst.IsDirectBranch() {
				add(inst.Target())
			}
			if inst.Attrs&(x86.AttrJump|x86.AttrCondJump|x86.AttrCall|x86.AttrRet|x86.AttrStop) != 0 {
				break
			}
		}
	}
	return orig
}

// boundary reports whether an instruction of the universe starts at
// addr.
func (v *verifier) boundary(addr uint64) bool {
	_, ok := slices.BinarySearchFunc(v.univ, addr, func(l x86.Loc, a uint64) int { return cmp.Compare(l.Addr, a) })
	return ok
}

// claim records n reached bytes from addr for the rows that map them:
// two rows merged onto one physical block must not both reach one of
// its offsets.
func (v *verifier) claim(m *image, addr uint64, n int) {
	for i := 0; i < n; i++ {
		row, o, _ := m.at(addr + uint64(i))
		phys := m.blob.Mappings[row].Phys
		key := [2]uint64{uint64(phys), o / elf64.PageSize}
		own := m.owner[key]
		if own == nil {
			own = new([elf64.PageSize]int32)
			m.owner[key] = own
		}
		switch p := &own[o%elf64.PageSize]; *p {
		case 0:
			*p = int32(row + 1)
			m.reached[row] = true
			v.r.Reached++
		case int32(row + 1):
		default:
			v.r.fail('d', "physical block %d offset %#x is reached through rows %d and %d", phys, o, *p-1, row)
		}
	}
}
