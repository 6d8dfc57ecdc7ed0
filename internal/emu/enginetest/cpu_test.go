package enginetest

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"e9patch"
	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// The CPU oracle. Each flag-writing instruction form is assembled into
// one static executable that runs it over cpuVectors input vectors:
// per vector it loads rax, rbx, rcx, the memory slot and RFLAGS
// (popfq), runs the form, and records rax, rdx, RFLAGS (pushfq), setcc on
// the vector's condition, and the direction of a jcc on it, once
// directly after the form (a pair the ir engine fuses) and once with a
// flag-neutral mov between them. The vectors cover every pair of edge
// operands under each of the 16 conditions. The host runs the
// executable, which writes its records to stdout; the same code ending
// in hlt runs under every engine, which must record the same on every
// flag the SDM defines. div and idiv, which define no flag, are checked
// on rax and rdx over vectors whose quotient fits: a divide error
// would kill the executable.

// cpuVectors is the number of input vectors per executable.
const cpuVectors = 1000

// Record layouts: an input vector is a, b, c, RFLAGS and the addresses
// of its setcc, fused jcc and unfused jcc chunks; an output record is
// rax, rdx, RFLAGS, the setcc byte and the jcc directions (bit 0 fused,
// bit 1 unfused).
const (
	inSize  = 56
	outSize = 40
)

// Layout of the executable: the text is padded to one page, so the
// data (the input vectors) and the bss (the memory slot, then the
// output records) are at the same addresses whatever the text's tail.
const (
	cpuText    = elf64.DefaultBase + elf64.TextVaddrOff
	cpuIn      = cpuText + elf64.PageSize
	cpuSlot    = cpuIn + cpuVectors*inSize
	cpuOut     = cpuSlot + 8
	chunks     = cpuText + 0x400 // 16 setcc, 16 fused and 16 unfused jcc chunks
	chunkSize  = 48
	statusMask = emu.FlagCF | emu.FlagPF | emu.FlagAF | emu.FlagZF | emu.FlagSF | emu.FlagOF
)

// cpuForm is one instruction form under test. It reads rax (its
// destination), rbx, rcx, rdx (b, which mul and imul by one operand
// overwrite) and, when mem is set, the slot [r13], which
// holds b when slotB is set and a otherwise; a form with memDst leaves
// its result in the slot.
type cpuForm struct {
	name       string
	w          int // operand width in bytes
	code       []byte
	mem, slotB bool
	memDst     bool
	defined    func(c uint64) uint64 // the status flags defined after the form, given rcx
	// vectors, when set, makes the form's input vectors instead of
	// cpuInputs.
	vectors func(rng *rand.Rand) []cpuVector
}

// cpuVector is one input vector.
type cpuVector struct {
	a, b, c, flags uint64
	cc             x86.Cond
}

// cpuRecord is one output record.
type cpuRecord struct {
	rax, rdx, flags, setcc, jcc uint64
}

// condReads are the status flags each even condition code reads.
var condReads = [8]uint64{
	emu.FlagOF, emu.FlagCF, emu.FlagZF, emu.FlagCF | emu.FlagZF,
	emu.FlagSF, emu.FlagPF, emu.FlagSF | emu.FlagOF, emu.FlagZF | emu.FlagSF | emu.FlagOF,
}

// constant returns a defined-flags function that ignores rcx.
func constant(d uint64) func(uint64) uint64 { return func(uint64) uint64 { return d } }

// cpuForms returns every form the table covers: add, or, adc, sbb, and,
// sub, xor, cmp and test at widths 1, 2, 4 and 8 with register, memory
// and immediate operands; inc, dec and neg on a register and on memory;
// mul and imul by one operand, on a register and on memory; the 2- and
// 3-operand imul; shl, shr, sar, rol and ror by 1, by an immediate and
// by cl; then, so that the vectors of the others stay as they were,
// div and idiv of rcx:rax (moved to rdx:rax) or ax by rbx and by
// memory, and the byte forms on ah and bh, which need no REX.
func cpuForms() []cpuForm {
	var forms []cpuForm
	add := func(f cpuForm) { forms = append(forms, f) }
	for _, w := range []int{1, 2, 4, 8} {
		immW := min(w, 4)
		signImm := uint64(0x81) << (8 * (immW - 1)) >> 7 // the sign bit and 1
		for op := byte(0); op <= 8; op++ {
			name := []string{"add", "or", "adc", "sbb", "and", "sub", "xor", "cmp", "test"}[op]
			d := constant(statusMask)
			if op == 1 || op == 4 || op == 6 || op == 8 {
				d = constant(statusMask &^ emu.FlagAF) // logic: AF undefined
			}
			f := func(form string, code []byte, mem, slotB bool) {
				add(cpuForm{w: w, name: fmt.Sprintf("%s%d-%s", name, 8*w, form), code: code, mem: mem, slotB: slotB,
					memDst: mem && !slotB, defined: d})
			}
			if op == 8 { // test
				f("rr", encode(w, []byte{0x84 | full(w)}, 3, false, 0, 0), false, false)
				f("mr", encode(w, []byte{0x84 | full(w)}, 3, true, 0, 0), true, false)
				f("imm", encode(w, []byte{0xF6 | full(w)}, 0, false, signImm, immW), false, false)
				f("acc", append(append(prefix(w), 0xA8|full(w)), le(signImm, immW)...), false, false)
				continue
			}
			f("rr", encode(w, []byte{op<<3 | full(w)}, 3, false, 0, 0), false, false)
			f("mr", encode(w, []byte{op<<3 | full(w)}, 3, true, 0, 0), true, false)
			f("rm", encode(w, []byte{op<<3 | 2 | full(w)}, 0, true, 0, 0), true, true)
			f("imm", encode(w, []byte{0x80 | full(w)}, op, false, signImm, immW), false, false)
			if w > 1 {
				f("imm8", encode(w, []byte{0x83}, op, false, 0xFF, 1), false, false)
			}
			f("acc", append(append(prefix(w), op<<3|4|full(w)), le(1, immW)...), false, false)
		}
		for _, g := range []struct {
			op, sub byte
			name    string
		}{{0xFE, 0, "inc"}, {0xFE, 1, "dec"}, {0xF6, 3, "neg"}} {
			op := []byte{g.op | full(w)}
			add(cpuForm{w: w, name: fmt.Sprintf("%s%d-r", g.name, 8*w), code: encode(w, op, g.sub, false, 0, 0), defined: constant(statusMask)})
			add(cpuForm{w: w, name: fmt.Sprintf("%s%d-m", g.name, 8*w), code: encode(w, op, g.sub, true, 0, 0),
				mem: true, memDst: true, defined: constant(statusMask)})
		}
		for _, g := range []struct {
			sub  byte
			name string
		}{{4, "mul"}, {5, "imul"}} {
			op, d := []byte{0xF6 | full(w)}, constant(emu.FlagCF|emu.FlagOF)
			r := encode(w, op, g.sub, false, 0, 0)
			r[len(r)-1] |= 3 // rbx
			add(cpuForm{w: w, name: fmt.Sprintf("%s%d-1r", g.name, 8*w), code: r, defined: d})
			add(cpuForm{w: w, name: fmt.Sprintf("%s%d-1m", g.name, 8*w), code: encode(w, op, g.sub, true, 0, 0), mem: true, slotB: true, defined: d})
		}
		if w > 1 {
			d := constant(emu.FlagCF | emu.FlagOF)
			rr := encode(w, []byte{0x0F, 0xAF}, 0, false, 0, 0)
			rr[len(rr)-1] |= 3 // imul rax, rbx
			add(cpuForm{w: w, name: fmt.Sprintf("imul%d-rr", 8*w), code: rr, defined: d})
			add(cpuForm{w: w, name: fmt.Sprintf("imul%d-rm", 8*w), code: encode(w, []byte{0x0F, 0xAF}, 0, true, 0, 0), mem: true, slotB: true, defined: d})
			for _, imm := range []struct {
				op    byte
				v     uint64
				bytes int
			}{{0x6B, 0xFD, 1}, {0x69, signImm | 2, immW}} {
				code := encode(w, []byte{imm.op}, 0, false, 0, 0)
				code[len(code)-1] |= 3 // imul rax, rbx, imm
				add(cpuForm{w: w, name: fmt.Sprintf("imul%d-rri%d", 8*w, 8*imm.bytes), code: append(code, le(imm.v, imm.bytes)...), defined: d})
			}
		}
		for _, sub := range []byte{0, 1, 4, 5, 7} {
			name := map[byte]string{0: "rol", 1: "ror", 4: "shl", 5: "shr", 7: "sar"}[sub]
			add(cpuForm{w: w, name: fmt.Sprintf("%s%d-1", name, 8*w), code: encode(w, []byte{0xD0 | full(w)}, sub, false, 0, 0),
				defined: func(uint64) uint64 { return shiftDefined(sub, w, 1) }})
			add(cpuForm{w: w, name: fmt.Sprintf("%s%d-imm5", name, 8*w), code: encode(w, []byte{0xC0 | full(w)}, sub, false, 5, 1),
				defined: func(uint64) uint64 { return shiftDefined(sub, w, 5) }})
			add(cpuForm{w: w, name: fmt.Sprintf("%s%d-cl", name, 8*w), code: encode(w, []byte{0xD2 | full(w)}, sub, false, 0, 0),
				defined: func(c uint64) uint64 { return shiftDefined(sub, w, c) }})
		}
	}
	movRDXRCX := []byte{0x48, 0x89, 0xCA}
	for _, w := range []int{1, 2, 4, 8} {
		for _, g := range []struct {
			sub  byte
			name string
		}{{6, "div"}, {7, "idiv"}} {
			op, signed := []byte{0xF6 | full(w)}, g.sub == 7
			vs := func(rng *rand.Rand) []cpuVector { return divInputs(w, signed, rng) }
			r := encode(w, op, g.sub, false, 0, 0)
			r[len(r)-1] |= 3 // rbx
			add(cpuForm{w: w, name: fmt.Sprintf("%s%d-1r", g.name, 8*w), code: append(movRDXRCX, r...), defined: constant(0), vectors: vs})
			add(cpuForm{w: w, name: fmt.Sprintf("%s%d-1m", g.name, 8*w), code: append(movRDXRCX, encode(w, op, g.sub, true, 0, 0)...),
				mem: true, slotB: true, defined: constant(0), vectors: vs})
		}
	}
	// Byte registers 4–7 without REX are ah, ch, dh and bh: a (rax) and
	// b (rbx) meet as ah and bh, al and ah, and ah and an immediate,
	// over cpuInputs' byte vectors rotated into ah and bh.
	high := func(name string, code []byte, d func(uint64) uint64) {
		add(cpuForm{w: 1, name: name, code: code, defined: d, vectors: func(rng *rand.Rand) []cpuVector {
			vs := cpuInputs(1, rng)
			for i := range vs {
				vs[i].a, vs[i].b = bits.RotateLeft64(vs[i].a, 8), bits.RotateLeft64(vs[i].b, 8)
			}
			return vs
		}})
	}
	for op := byte(0); op <= 8; op++ {
		name := []string{"add", "or", "adc", "sbb", "and", "sub", "xor", "cmp", "test"}[op]
		d := constant(statusMask)
		if op == 1 || op == 4 || op == 6 || op == 8 {
			d = constant(statusMask &^ emu.FlagAF)
		}
		rr, imm := op<<3, []byte{0x80, 0xC4 | op<<3, 0x81}
		if op == 8 {
			rr, imm = 0x84, []byte{0xF6, 0xC4, 0x81}
		}
		high(name+"8-ah-bh", []byte{rr, 0xFC}, d)
		if op != 8 {
			high(name+"8-ah-al", []byte{rr | 2, 0xE0}, d)
		}
		high(name+"8-ah-imm", imm, d)
	}
	for _, f := range []struct {
		name    string
		code    []byte
		defined func(c uint64) uint64
	}{
		{"mov8-ah-bh", []byte{0x88, 0xFC}, constant(statusMask)},
		{"mov8-al-bh", []byte{0x8A, 0xC7}, constant(statusMask)},
		{"mov8-ah-imm", []byte{0xB4, 0x81}, constant(statusMask)},
		{"xchg8-ah-bh", []byte{0x86, 0xFC}, constant(statusMask)},
		{"movzx32-bh", []byte{0x0F, 0xB6, 0xC7}, constant(statusMask)},
		{"movsx32-ah", []byte{0x0F, 0xBE, 0xC4}, constant(statusMask)},
		{"inc8-ah", []byte{0xFE, 0xC4}, constant(statusMask)},
		{"dec8-ah", []byte{0xFE, 0xCC}, constant(statusMask)},
		{"not8-ah", []byte{0xF6, 0xD4}, constant(statusMask)},
		{"neg8-ah", []byte{0xF6, 0xDC}, constant(statusMask)},
		{"mul8-bh", []byte{0xF6, 0xE7}, constant(emu.FlagCF | emu.FlagOF)},
		{"imul8-bh", []byte{0xF6, 0xEF}, constant(emu.FlagCF | emu.FlagOF)},
		{"shl8-ah-imm5", []byte{0xC0, 0xE4, 5}, constant(shiftDefined(4, 1, 5))},
		{"shr8-ah-imm5", []byte{0xC0, 0xEC, 5}, constant(shiftDefined(5, 1, 5))},
		{"shl8-ah-cl", []byte{0xD2, 0xE4}, func(c uint64) uint64 { return shiftDefined(4, 1, c) }},
	} {
		high(f.name, f.code, f.defined)
	}
	return forms
}

// divInputs returns the vectors for div, or idiv when signed, at width
// w: every combination of edge dividend halves and divisors whose
// quotient fits in w bytes, then random ones, with divisors of every
// magnitude. The dividend is ax at width 1, else the low w bytes of rcx
// (the form moves rcx to rdx) and of rax; the divisor is b. Bits above
// the width are set in half of them.
func divInputs(w int, signed bool, rng *rand.Rand) []cpuVector {
	bitsW := uint(8 * w)
	mask := ^uint64(0) >> (64 - bitsW)
	sign := mask>>1 + 1
	edges := []uint64{0, 1, 2, sign - 1, sign, sign + 1, mask - 1, mask}
	junk := func(v, m uint64) uint64 {
		if rng.Intn(2) == 0 {
			return v | ^m&rng.Uint64()
		}
		return v
	}
	var vs []cpuVector
	try := func(hi, lo, d uint64) {
		hi, lo, d = hi&mask, lo&mask, d&mask
		if len(vs) == cpuVectors || !divFits(hi, lo, d, w, signed) {
			return
		}
		a, c := junk(lo, mask), junk(hi, mask)
		if w == 1 {
			a, c = junk(hi<<8|lo, 0xFFFF), rng.Uint64()
		}
		vs = append(vs, cpuVector{a, junk(d, mask), c, rng.Uint64()&statusMask | 0x202, x86.Cond(rng.Intn(16))})
	}
	for _, hi := range edges {
		for _, lo := range edges {
			for _, d := range edges {
				try(hi, lo, d)
			}
		}
	}
	for len(vs) < cpuVectors {
		d, lo := rng.Uint64()>>rng.Intn(64), rng.Uint64()
		var hi uint64 // 0, lo's sign extended, or below the divisor
		switch rng.Intn(3) {
		case 0:
		case 1:
			hi = uint64(int64(lo<<(64-bitsW)) >> 63)
		default:
			hi = rng.Uint64() % max(d&mask, 1)
		}
		try(hi, lo, d)
	}
	return vs
}

// divFits reports whether dividing the 2w-byte hi:lo by the w-byte d,
// signed or not, leaves a quotient that fits in w bytes (d == 0 does
// not).
func divFits(hi, lo, d uint64, w int, signed bool) bool {
	bitsW := uint(8 * w)
	n := new(big.Int).Lsh(new(big.Int).SetUint64(hi), bitsW)
	n.Or(n, new(big.Int).SetUint64(lo))
	v := new(big.Int).SetUint64(d)
	lim := new(big.Int).Lsh(big.NewInt(1), bitsW) // quotients in [min, lim)
	minQ := new(big.Int)
	if signed {
		toSigned(n, 2*bitsW)
		toSigned(v, bitsW)
		lim.Rsh(lim, 1)
		minQ.Neg(lim)
	}
	if v.Sign() == 0 {
		return false
	}
	q := new(big.Int).Quo(n, v)
	return q.Cmp(minQ) >= 0 && q.Cmp(lim) < 0
}

// toSigned reinterprets x, a bits-wide two's complement value, as
// signed.
func toSigned(x *big.Int, bits uint) {
	if x.Bit(int(bits-1)) == 1 {
		x.Sub(x, new(big.Int).Lsh(big.NewInt(1), bits))
	}
}

// prefix is the operand-size prefix of width w.
func prefix(w int) []byte {
	switch w {
	case 2:
		return []byte{0x66}
	case 8:
		return []byte{0x48}
	}
	return nil
}

// le returns the low n bytes of v, little-endian.
func le(v uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// shiftDefined is the status flags the SDM defines after shift group
// member sub (rol, ror, shl, shr, sar) at width w by count n: all of
// them, unchanged, when the masked count is 0; for a rotate CF, with
// SF, ZF, PF and AF unchanged; for a shift CF, SF, ZF and PF, but not
// the CF of shl and shr by the operand's width or more; and OF only
// when the masked count is 1.
func shiftDefined(sub byte, w int, n uint64) uint64 {
	m := n & 31
	if w == 8 {
		m = n & 63
	}
	if m == 0 {
		return statusMask
	}
	d := emu.FlagCF | emu.FlagSF | emu.FlagZF | emu.FlagPF
	if sub <= 1 {
		d |= emu.FlagAF
	}
	if m == 1 {
		d |= emu.FlagOF
	}
	if (sub == 4 || sub == 5) && m >= uint64(8*w) {
		d &^= emu.FlagCF
	}
	return d
}

// cpuInputs returns the vectors for a form at width w: each pair of the
// edge operands (0, 1, the sign bit less 1, the sign bit, all ones)
// under each of the 16 conditions, then random ones, a third of them
// with equal operands. Bits above the width are set in half of them,
// the input status flags are random, and rcx is a count from 0 to 71.
func cpuInputs(w int, rng *rand.Rand) []cpuVector {
	mask := ^uint64(0) >> (64 - 8*uint(w))
	sign := mask>>1 + 1
	edges := []uint64{0, 1, sign - 1, sign, mask}
	junk := func(v uint64) uint64 {
		if rng.Intn(2) == 0 {
			return v | ^mask&rng.Uint64()
		}
		return v
	}
	flags := func() uint64 { return rng.Uint64()&statusMask | 0x202 }
	var vs []cpuVector
	for _, a := range edges {
		for _, b := range edges {
			for cc := x86.Cond(0); cc < 16; cc++ {
				vs = append(vs, cpuVector{junk(a), junk(b), uint64(len(vs) % 72), flags(), cc})
			}
		}
	}
	for len(vs) < cpuVectors {
		a, b := rng.Uint64(), rng.Uint64()
		switch rng.Intn(3) {
		case 0:
			b = a
		case 1:
			a, b = a&0xFF, b&0xFF
		}
		vs = append(vs, cpuVector{a, b, uint64(rng.Intn(72)), flags(), x86.Cond(rng.Intn(16))})
	}
	return vs
}

// cpuProgram assembles form f over the vectors. native ends it in the
// write of the output records to stdout and exit_group; otherwise it
// ends in hlt.
func cpuProgram(f cpuForm, vs []cpuVector, native bool) ([]byte, error) {
	a := x86.NewAsm(cpuText)
	load := func(a *x86.Asm) {
		if f.mem {
			src := x86.RAX
			if f.slotB {
				src = x86.RBX
			}
			a.MovMemReg64(x86.M(x86.R13, 0), src)
		}
		a.PushReg(x86.R10)
		a.Popfq()
		a.Raw(f.code...)
	}
	a.MovRegImm64(x86.R15, cpuIn)
	a.MovRegImm64(x86.R14, cpuOut)
	a.MovRegImm64(x86.R13, cpuSlot)
	a.MovRegImm64(x86.R12, uint64(len(vs)))
	loop := a.NewLabel()
	a.Bind(loop)
	a.MovRegMem64(x86.RAX, x86.M(x86.R15, 0))
	a.MovRegMem64(x86.RBX, x86.M(x86.R15, 8))
	a.MovRegReg64(x86.RDX, x86.RBX)
	a.MovRegMem64(x86.RCX, x86.M(x86.R15, 16))
	a.MovRegMem64(x86.R10, x86.M(x86.R15, 24))
	load(a)
	a.Pushfq()
	a.PopReg(x86.R9)
	a.MovMemReg64(x86.M(x86.R14, 16), x86.R9)
	if f.memDst {
		a.MovRegMem64(x86.RAX, x86.M(x86.R13, 0))
	}
	a.MovMemReg64(x86.M(x86.R14, 0), x86.RAX)
	a.MovMemReg64(x86.M(x86.R14, 8), x86.RDX)
	a.MovMemReg64(x86.M(x86.R14, 24), x86.R12) // the setcc field, whose low byte setcc overwrites
	var back [3]uint64
	for k := range back {
		a.JmpMem(x86.M(x86.R15, int32(32+8*k)))
		back[k] = a.Addr()
		if k == 0 {
			a.XorRegReg32(x86.R11, x86.R11)
		}
	}
	a.MovMemReg64(x86.M(x86.R14, 32), x86.R11)
	a.AddRegImm64(x86.R15, inSize)
	a.AddRegImm64(x86.R14, outSize)
	a.SubRegImm64(x86.R12, 1)
	a.Jcc(x86.CondNE, loop)
	if native {
		a.MovRegImm64(x86.RSI, cpuOut)
		a.MovRegImm64(x86.RDX, uint64(len(vs)*outSize))
		again, fail := a.NewLabel(), a.NewLabel()
		a.Bind(again)
		a.MovRegImm32(x86.RAX, 1) // write
		a.MovRegImm32(x86.RDI, 1)
		a.Raw(0x0F, 0x05) // syscall
		a.TestRegReg64(x86.RAX, x86.RAX)
		a.Jcc(x86.CondLE, fail)
		a.AddRegReg64(x86.RSI, x86.RAX)
		a.SubRegReg64(x86.RDX, x86.RAX)
		a.Jcc(x86.CondNE, again)
		a.MovRegImm32(x86.RDI, 0)
		a.Bind(fail)
		a.MovRegImm32(x86.RAX, 231) // exit_group
		a.Raw(0x0F, 0x05)
	} else {
		a.Raw(0xF4) // hlt
	}
	for cc := x86.Cond(0); cc < 16; cc++ {
		padTo(a, chunkAt(0, cc))
		a.Raw(0x41, 0x0F, 0x90|byte(cc), 0x46, 24) // setcc [r14+24]
		a.JmpRel32(back[0])
	}
	for k := 1; k <= 2; k++ {
		for cc := x86.Cond(0); cc < 16; cc++ {
			padTo(a, chunkAt(k, cc))
			a.MovRegMem64(x86.RAX, x86.M(x86.R15, 0))
			load(a)
			if k == 2 { // unfused
				a.MovRegReg64(x86.R9, x86.RAX)
			}
			taken := a.NewLabel()
			a.JccShort(cc, taken)
			a.JmpRel32(back[k])
			a.Bind(taken)
			a.OrRegImm64(x86.R11, int32(k))
			a.JmpRel32(back[k])
		}
	}
	if a.Addr() > cpuText+elf64.PageSize {
		return nil, fmt.Errorf("%s: text overflows its page", f.name)
	}
	padTo(a, cpuText+elf64.PageSize)
	text, err := a.Finish()
	if err != nil {
		return nil, err
	}
	data := make([]byte, 0, len(vs)*inSize)
	for _, v := range vs {
		for _, q := range []uint64{v.a, v.b, v.c, v.flags, chunkAt(0, v.cc), chunkAt(1, v.cc), chunkAt(2, v.cc)} {
			data = binary.LittleEndian.AppendUint64(data, q)
		}
	}
	return elf64.Build(elf64.BuildSpec{Text: text, Data: data, BSSSize: 8 + uint64(len(vs)*outSize)})
}

// chunkAt is the address of chunk set k's chunk on cc: k is 0 for
// setcc, 1 for the fused jcc and 2 for the unfused jcc.
func chunkAt(k int, cc x86.Cond) uint64 {
	return chunks + uint64(16*k+int(cc))*chunkSize
}

// parseRecords decodes n output records.
func parseRecords(out []byte, n int) ([]cpuRecord, error) {
	if len(out) != n*outSize {
		return nil, fmt.Errorf("%d bytes of records, want %d", len(out), n*outSize)
	}
	rs := make([]cpuRecord, n)
	for i := range rs {
		r := out[i*outSize:]
		q := func(k int) uint64 { return binary.LittleEndian.Uint64(r[8*k:]) }
		rs[i] = cpuRecord{q(0), q(1), q(2), q(3), q(4)}
	}
	return rs, nil
}

// runNative runs the executable at path on the host and returns its n
// records.
func runNative(path string, n int) ([]cpuRecord, error) {
	out, err := exec.Command(path).Output()
	if err != nil {
		return nil, err
	}
	return parseRecords(out, n)
}

// runEmulated runs an executable under an engine and returns its
// records and the machine's Counters.
func runEmulated(t *testing.T, engine string, elf []byte, n int) ([]cpuRecord, emu.Counters, error) {
	m := emu.NewMachine()
	m.Engine = newEngine(t, engine)
	entry, err := e9patch.Load(m, elf)
	if err != nil {
		return nil, m.Counters, err
	}
	m.SetupStack(workload.StackTop, workload.StackSize)
	m.RIP = entry
	if err := m.Run(uint64(n) * 400); err != nil {
		return nil, m.Counters, err
	}
	if !m.Halted() {
		return nil, m.Counters, fmt.Errorf("did not halt")
	}
	out, ok := m.Mem.ReadBytes(cpuOut, n*outSize)
	if !ok {
		return nil, m.Counters, fmt.Errorf("output records unmapped")
	}
	rs, err := parseRecords(out, n)
	return rs, m.Counters, err
}

// diffRecords returns how many vectors differ between the host and an
// engine in rax, in rdx, in the defined status flags, in a setcc and in a jcc
// whose condition reads only defined flags, with the first differing
// vector in each.
func diffRecords(f cpuForm, vs []cpuVector, cpu, got []cpuRecord) []string {
	var rows []string
	for _, aspect := range []string{"rax", "rdx", "flags", "setcc", "jcc"} {
		n, first := 0, ""
		for i, v := range vs {
			c, g, def := cpu[i], got[i], f.defined(v.c)
			var diff string
			switch aspect {
			case "rax":
				if c.rax != g.rax {
					diff = fmt.Sprintf("rax %#x, want %#x", g.rax, c.rax)
				}
			case "rdx":
				if c.rdx != g.rdx {
					diff = fmt.Sprintf("rdx %#x, want %#x", g.rdx, c.rdx)
				}
			case "flags":
				if (c.flags^g.flags)&def != 0 {
					diff = fmt.Sprintf("flags %#x, want %#x (defined %#x)", g.flags&statusMask, c.flags&statusMask, def)
				}
			case "setcc":
				if condReads[v.cc>>1]&^def == 0 && c.setcc != g.setcc {
					diff = fmt.Sprintf("set%s %#x, want %#x", v.cc, g.setcc, c.setcc)
				}
			case "jcc":
				if condReads[v.cc>>1]&^def == 0 && c.jcc != g.jcc {
					diff = fmt.Sprintf("j%s taken %02b (bit 0 fused, bit 1 unfused), want %02b", v.cc, g.jcc, c.jcc)
				}
			}
			if diff != "" {
				if n == 0 {
					first = fmt.Sprintf("a=%#x b=%#x c=%d flags=%#x: %s", v.a, v.b, v.c, v.flags&statusMask, diff)
				}
				n++
			}
		}
		if n > 0 {
			rows = append(rows, fmt.Sprintf("%-5s %4d of %d vectors; first %s", aspect, n, len(vs), first))
		}
	}
	return rows
}

// TestEnginesMatchCPU holds every engine to the host processor, the
// hardware the emulator stands in for (DESIGN.md §13), on every form
// cpuForms lists: rax, rdx, the status flags the SDM defines, and setcc
// and a jcc after the form, fused and unfused, on each vector's
// condition (all 16 over the vectors). It skips unless it runs on
// linux/amd64 and the host runs the first executable.
func TestEnginesMatchCPU(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("the CPU oracle runs only on linux/amd64")
	}
	// Every executable is written before any runs: a fork while another
	// goroutine still has an executable open for writing makes its exec
	// fail with ETXTBSY.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	forms := cpuForms()
	vecs := make([][]cpuVector, len(forms))
	paths := make([]string, len(forms))
	emulated := make([][]byte, len(forms))
	for i, f := range forms {
		if f.vectors != nil {
			vecs[i] = f.vectors(rng)
		} else {
			vecs[i] = cpuInputs(f.w, rng)
		}
		native, err := cpuProgram(f, vecs[i], true)
		if err == nil {
			emulated[i], err = cpuProgram(f, vecs[i], false)
		}
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("form%d", i))
		if err := os.WriteFile(paths[i], native, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runNative(paths[0], len(vecs[0])); err != nil {
		t.Skipf("the host does not run the executable: %v", err)
	}
	for i, f := range forms {
		vs := vecs[i]
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			cpu, err := runNative(paths[i], len(vs))
			if err != nil {
				t.Fatal(err)
			}
			for side, engine := range emu.EngineNames() {
				got, c, err := runEmulated(t, engine, emulated[i], len(vs))
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				countCounters(t, "cpu/"+f.name, side, c)
				for _, row := range diffRecords(f, vs, cpu, got) {
					t.Errorf("%s %-7s %s", f.name, engine, row)
				}
			}
		})
	}
}
