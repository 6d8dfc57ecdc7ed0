package emu

import (
	"math/bits"

	"e9patch/internal/x86"
)

// The flag record. Almost every x86 instruction writes the arithmetic
// flags and almost none of them are ever read: only a branch, setcc,
// cmov, adc/sbb, pushf or an explicit flag twiddle consumes them. A
// flagRec therefore keeps only the *producer* — which operation last
// defined the flags, with its operands and width — and derives each
// status flag from it on demand (QEMU's cc_op scheme).
//
// The record is the emulator's one definition of the six status flags.
// The ir engine keeps a record per run and derives just the bits a
// consumer reads, packing the record into Machine.Flags only at the
// seams that demand architectural flags (runtime calls, faults, the
// careful path, an interpreter fallback). The interpreter builds a
// record for every flag-writing instruction and packs it at once. A
// producer that leaves some flags as they were (inc and dec keep CF,
// shifts and imul keep AF, rotates all but CF and OF) copies them into its record when it is made,
// from the record before it: a record reads the architectural flags
// word only when it is kEager.

const (
	// kEager: no deferred computation; the architectural word is
	// authoritative.
	kEager = iota
	// kAdd: a + b + cin (add/adc); every flag from the operands.
	kAdd
	// kSub: a - b - cin (sub/sbb/cmp/neg); every flag from the operands.
	kSub
	// kInc and kDec: kAdd and kSub of a and 1 (inc/dec), CF kept in aux.
	kInc
	kDec
	// kLogic: and/or/xor/test; ZF/SF/PF from res, CF=OF=AF=0.
	kLogic
	// kShift: shl/shr/sar with count >= 1; ZF/SF/PF from res, CF and OF
	// (0 unless the count is 1) in aux, AF kept in aux.
	kShift
	// kImul: two-operand signed multiply; ZF/SF/PF from res, CF = OF in
	// aux, AF kept in aux.
	kImul
	// kFlags: mul, one-operand imul, rol and ror with count >= 1; every
	// status flag in aux, CF and OF made by the producer and the rest
	// kept.
	kFlags
)

// statusFlags are the six arithmetic status flags a record defines.
const statusFlags = FlagCF | FlagPF | FlagAF | FlagZF | FlagSF | FlagOF

// flagRec is one deferred flag computation.
type flagRec struct {
	kind      uint8
	w         uint8  // operand width in bytes
	aux       uint16 // the flags the kind does not derive, at their RFLAGS positions
	a, b, cin uint64 // operands (pre-masked); cin is 0 or 1
	res       uint64 // result for kinds that don't recompute it
}

// arith records an add (kAdd) or a sub (kSub) of a and b with no carry
// in. Like logic, it writes only the fields its kind reads.
func (f *flagRec) arith(kind, w uint8, a, b uint64) {
	f.kind, f.w, f.a, f.b, f.cin = kind, w, a, b, 0
}

// logic records the result res of a logic op.
func (f *flagRec) logic(w uint8, res uint64) {
	f.kind, f.w, f.res = kLogic, w, res
}

// setCO replaces f with the record of a producer that sets CF and OF
// (each 0 or 1) and keeps every other status flag of f over flags.
func (f *flagRec) setCO(flags, cf, of uint64) {
	kept := f.pack(flags) & statusFlags &^ (FlagCF | FlagOF)
	*f = flagRec{kind: kFlags, aux: uint16(kept | cf | of<<11)}
}

// result returns the masked arithmetic result of the recorded op.
func (f *flagRec) result() uint64 {
	mask := maskFor(int(f.w))
	switch f.kind {
	case kAdd, kInc:
		return (f.a + f.b + f.cin) & mask
	case kSub, kDec:
		return (f.a - f.b - f.cin) & mask
	default:
		return f.res
	}
}

// pack returns the architectural flags word flags with the record's six
// status flags in place: flags itself when the record is kEager.
func (f *flagRec) pack(flags uint64) uint64 {
	if f.kind == kEager {
		return flags
	}
	v := flags&^statusFlags | f.cf(flags) | f.af(flags)<<4 | f.sf(flags)<<7 | f.of(flags)<<11
	if f.zf(flags) {
		v |= FlagZF
	}
	if f.pf(flags) {
		v |= FlagPF
	}
	return v
}

// cf returns the carry flag (0 or 1) of the record over flags.
func (f *flagRec) cf(flags uint64) uint64 {
	switch f.kind {
	case kEager:
		return flags & FlagCF
	case kAdd:
		if f.w == 8 {
			_, c := bits.Add64(f.a, f.b, f.cin)
			return c
		}
		if f.a+f.b+f.cin > maskFor(int(f.w)) {
			return 1
		}
		return 0
	case kSub:
		if f.w == 8 {
			_, brw := bits.Sub64(f.a, f.b, f.cin)
			return brw
		}
		if f.a < f.b+f.cin {
			return 1
		}
		return 0
	case kLogic:
		return 0
	default: // kInc, kDec, kShift, kImul, kFlags
		return uint64(f.aux) & FlagCF
	}
}

// af returns the adjust flag (0 or 1) of the record over flags.
func (f *flagRec) af(flags uint64) uint64 {
	switch f.kind {
	case kEager:
		return flags >> 4 & 1
	case kAdd, kSub, kInc, kDec:
		return ((f.a ^ f.b ^ f.result()) >> 4) & 1
	case kLogic:
		return 0
	default: // kShift, kImul, kFlags
		return uint64(f.aux) >> 4 & 1
	}
}

// word returns the status flags the record keeps whole, and whether it
// keeps them so: flags for kEager, aux for kFlags.
func (f *flagRec) word(flags uint64) (uint64, bool) {
	switch f.kind {
	case kEager:
		return flags, true
	case kFlags:
		return uint64(f.aux), true
	}
	return 0, false
}

// zf returns the zero flag of the record over flags.
func (f *flagRec) zf(flags uint64) bool {
	if w, ok := f.word(flags); ok {
		return w&FlagZF != 0
	}
	return f.result() == 0
}

// sf returns the sign flag (0 or 1) of the record over flags.
func (f *flagRec) sf(flags uint64) uint64 {
	if w, ok := f.word(flags); ok {
		return w >> 7 & 1
	}
	return f.result() >> (8*uint(f.w) - 1) & 1
}

// pf returns the parity flag of the record over flags.
func (f *flagRec) pf(flags uint64) bool {
	if w, ok := f.word(flags); ok {
		return w&FlagPF != 0
	}
	return bits.OnesCount8(uint8(f.result()))%2 == 0
}

// of returns the overflow flag (0 or 1) of the record over flags.
func (f *flagRec) of(flags uint64) uint64 {
	switch f.kind {
	case kEager:
		return flags >> 11 & 1
	case kAdd, kInc:
		res := f.result()
		return ((f.a ^ res) & (f.b ^ res)) >> (8*uint(f.w) - 1) & 1
	case kSub, kDec:
		res := f.result()
		return ((f.a ^ f.b) & (f.a ^ res)) >> (8*uint(f.w) - 1) & 1
	case kLogic:
		return 0
	default: // kShift, kImul, kFlags
		return uint64(f.aux) >> 11 & 1
	}
}

// conds are the conditions of the even condition codes, indexed by
// cc>>1, over a record and the architectural flags; an odd code is its
// even neighbour negated. Machine.cond and jccOp both evaluate a
// condition through this table.
var conds = [8]func(f *flagRec, flags uint64) bool{
	x86.CondO >> 1:  func(f *flagRec, flags uint64) bool { return f.of(flags) != 0 },
	x86.CondB >> 1:  func(f *flagRec, flags uint64) bool { return f.cf(flags) != 0 },
	x86.CondE >> 1:  func(f *flagRec, flags uint64) bool { return f.zf(flags) },
	x86.CondBE >> 1: func(f *flagRec, flags uint64) bool { return f.cf(flags) != 0 || f.zf(flags) },
	x86.CondS >> 1:  func(f *flagRec, flags uint64) bool { return f.sf(flags) != 0 },
	x86.CondP >> 1:  func(f *flagRec, flags uint64) bool { return f.pf(flags) },
	x86.CondL >> 1:  func(f *flagRec, flags uint64) bool { return f.sf(flags) != f.of(flags) },
	x86.CondLE >> 1: func(f *flagRec, flags uint64) bool { return f.zf(flags) || f.sf(flags) != f.of(flags) },
}

// cond evaluates condition code cc on the record over flags.
func (f *flagRec) cond(cc x86.Cond, flags uint64) bool {
	return conds[cc>>1](f, flags) != (cc&1 == 1)
}

// materialize packs the deferred record into Machine.Flags and marks
// the flags eager. It is idempotent and cheap when already eager.
func (s *state) materialize() {
	s.m.Flags = s.fl.pack(s.m.Flags)
	s.fl.kind = kEager
}
