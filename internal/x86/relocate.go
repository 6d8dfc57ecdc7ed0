package x86

import "fmt"

// ErrRelocRange reports that a relocated displacement no longer fits in
// 32 bits.
var ErrRelocRange = fmt.Errorf("x86: relocated displacement out of rel32 range")

// AppendRelocated appends to dst the instruction re-encoded so that it
// can be executed at newAddr with unchanged semantics. RIP-relative
// displacements are adjusted; all other instructions are byte-copied.
// Direct branches must be handled by the caller (the trampoline
// compiler emits explicit branch sequences for them). On error dst is
// returned unchanged.
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
