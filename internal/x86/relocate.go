package x86

import "fmt"

// ErrRelocRange reports that a relocated displacement no longer fits in
// 32 bits.
var ErrRelocRange = fmt.Errorf("x86: relocated displacement out of rel32 range")

// RelocateSimple re-encodes a non-branch instruction so that it can be
// executed at newAddr with unchanged semantics. RIP-relative
// displacements are adjusted; all other instructions are byte-copied.
// Direct branches must be handled by the caller (the trampoline
// compiler emits explicit branch sequences for them).
func RelocateSimple(i *Inst, newAddr uint64) ([]byte, error) {
	out, err := AppendRelocated(make([]byte, 0, i.Len), i, newAddr)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendRelocated is RelocateSimple appending to dst: the instruction
// is re-encoded in place, with no temporary. On error dst is returned
// unchanged.
func AppendRelocated(dst []byte, i *Inst, newAddr uint64) ([]byte, error) {
	if !i.RIPRel {
		return append(dst, i.Bytes[:i.Len]...), nil
	}
	// target = oldAddr + len + disp = newAddr + len + newDisp.
	newDisp := i.Disp() + int64(i.Addr) - int64(newAddr)
	if newDisp < -1<<31 || newDisp > 1<<31-1 {
		return dst, fmt.Errorf("%w: %#x -> %#x disp %d", ErrRelocRange, i.Addr, newAddr, newDisp)
	}
	n := len(dst)
	dst = append(dst, i.Bytes[:i.Len]...)
	put32(dst[n+i.DispOff:], uint32(int32(newDisp)))
	return dst, nil
}

// RelocateBranch re-encodes a direct branch (jmp rel8/rel32, jcc
// rel8/rel32, call rel32) so that it reaches its original absolute
// target from newAddr. rel8 encodings are widened to their rel32 forms
// (jmp EB → E9, jcc 7x → 0F 8x), so the result is valid anywhere
// within ±2GiB of the target. loopcc/jrcxz (E0–E3) have no rel32 form
// and are rejected; indirect branches carry no displacement and must
// go through RelocateSimple.
func RelocateBranch(i *Inst, newAddr uint64) ([]byte, error) {
	if !i.IsDirectBranch() {
		return nil, fmt.Errorf("x86: RelocateBranch on non-direct-branch % x", i.Bytes)
	}
	if !i.TwoByte && i.Opcode >= 0xE0 && i.Opcode <= 0xE3 {
		return nil, fmt.Errorf("x86: %#02x (loopcc/jrcxz) has no rel32 form", i.Opcode)
	}
	var out []byte
	switch {
	case i.IsJmp():
		out = []byte{0xE9, 0, 0, 0, 0}
	case i.IsCall():
		out = []byte{0xE8, 0, 0, 0, 0}
	default: // jcc: the condition nibble is shared by 7x and 0F 8x.
		out = []byte{0x0F, 0x80 | i.Opcode&0x0F, 0, 0, 0, 0}
	}
	rel := int64(i.Target()) - int64(newAddr) - int64(len(out))
	if rel < -1<<31 || rel > 1<<31-1 {
		return nil, fmt.Errorf("%w: branch at %#x -> target %#x rel %d", ErrRelocRange, newAddr, i.Target(), rel)
	}
	put32(out[len(out)-4:], uint32(int32(rel)))
	return out, nil
}
