package emu

import (
	"testing"

	"e9patch/internal/x86"
)

// TestFusedFormsMatchRecord holds the fused compare+branch forms, which
// read a condition straight off the operands for speed, to the flag
// record they stand for: subCond and the branch subJcc takes must be the
// condition of a sub record of the operands, logicCond and andJcc's
// branch that of a logic record of their and, and each fused op must
// leave that record and the result behind. It covers the 16 conditions
// at every width over each pair of the edge operands 0, 1, the sign bit,
// all ones and the sign bit less 1.
func TestFusedFormsMatchRecord(t *testing.T) {
	m := NewMachine()
	j := jccTarget{next: 0x1000, target: 0x2000}
	for _, w := range []uint8{1, 2, 4, 8} {
		mask := maskFor(int(w))
		sign := mask>>1 + 1
		edges := []uint64{0, 1, sign, mask, sign - 1}
		subJ := byWidth(int(w), subJcc[uint8], subJcc[uint16], subJcc[uint32], subJcc[uint64])
		andJ := byWidth(int(w), andJcc[uint8], andJcc[uint16], andJcc[uint32], andJcc[uint64])
		for _, a := range edges {
			for _, b := range edges {
				var sub, and flagRec
				sub.arith(kSub, w, a, b)
				and.logic(w, a&b)
				for cc := x86.Cond(0); cc < 16; cc++ {
					wantSub, wantAnd := sub.cond(cc, 0), and.cond(cc, 0)
					if got := subCond(cc, a, b, w); got != wantSub {
						t.Errorf("w%d subCond(%v, %#x, %#x) = %v, the record says %v", w, cc, a, b, got, wantSub)
					}
					if got := logicCond(cc, a&b, w); got != wantAnd {
						t.Errorf("w%d logicCond(%v, %#x) = %v, the record says %v", w, cc, a&b, got, wantAnd)
					}
					for _, f := range []struct {
						name string
						op   func(x, y, out *uint64, cc x86.Cond, j jccTarget) uop
						rec  flagRec
						res  uint64
					}{
						{"subJcc", subJ, sub, (a - b) & mask},
						{"andJcc", andJ, and, a & b},
					} {
						s := &state{m: m}
						x, y, out := a, b, uint64(0)
						m.RIP = 0
						f.op(&x, &y, &out, cc, j)(s)
						want := f.rec.cond(cc, 0)
						if taken := m.RIP == j.target; taken != want {
							t.Errorf("w%d %s %#x, %#x on %v: taken %v, the record says %v", w, f.name, a, b, cc, taken, want)
						}
						if s.fl.pack(0) != f.rec.pack(0) || out != f.res {
							t.Errorf("w%d %s %#x, %#x on %v: left flags %#x and %#x, want %#x and %#x",
								w, f.name, a, b, cc, s.fl.pack(0), out, f.rec.pack(0), f.res)
						}
					}
				}
			}
		}
	}
}
