package emu

import "math/bits"

// Lazy EFLAGS. Almost every x86 instruction writes the arithmetic
// flags and almost none of them are ever read: the interpreter pays
// for ZF/SF/CF/OF/PF/AF (parity included) on every ALU instruction,
// but only a branch, setcc, cmov, adc/sbb, pushf or an explicit flag
// twiddle actually consumes them. The IR engine therefore records only
// the *producer* — which operation last defined the flags, with its
// operands and width — and derives individual flag bits on demand at
// the consumer. This is QEMU's cc_op scheme.
//
// The record kinds mirror the interpreter's flag-writing families
// exactly; materialization calls the interpreter's own flag functions
// (Machine.addFlags and friends), so a deferred computation lands
// bit-identically to what Machine.Step would have produced at the same
// instruction.

const (
	// kEager: no deferred computation; Machine.Flags is authoritative.
	kEager = iota
	// kAdd: a + b + cin (add/adc); full flag set.
	kAdd
	// kSub: a - b - cin (sub/sbb/cmp); full flag set.
	kSub
	// kLogic: and/or/xor/test; ZF/SF/PF from res, CF=OF=AF=0.
	kLogic
	// kShift: shl/shr/sar/rol/ror with count >= 1; ZF/SF/PF from res,
	// CF in aux bit 0, OF modelled as 0, AF preserved (aux bit 1).
	kShift
	// kImul: two-operand signed multiply; ZF/SF/PF from res, CF=OF in
	// aux bit 0, AF preserved (aux bit 1).
	kImul
)

// flagRec is one deferred flag computation.
type flagRec struct {
	kind uint8
	w    uint8 // operand width in bytes
	aux  uint8 // kShift: bit0 = CF, bit1 = preserved AF;
	// kImul: bit0 = CF=OF, bit1 = preserved AF
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

// result returns the masked arithmetic result of the recorded op.
func (f *flagRec) result() uint64 {
	mask := maskFor(int(f.w))
	switch f.kind {
	case kAdd:
		return (f.a + f.b + f.cin) & mask
	case kSub:
		return (f.a - f.b - f.cin) & mask
	default:
		return f.res
	}
}

// materialize flushes the deferred record into Machine.Flags using the
// interpreter's own flag functions, then marks the flags eager. It is
// idempotent and cheap when already eager.
func (s *state) materialize() {
	f := &s.fl
	if f.kind == kEager {
		return
	}
	m := s.m
	w := int(f.w)
	switch f.kind {
	case kAdd:
		m.addFlags(f.a, f.b, f.cin, w)
	case kSub:
		m.subFlags(f.a, f.b, f.cin, w)
	case kLogic:
		m.setLogicFlags(f.res, w)
	case kShift:
		m.setResultFlags(f.res, w)
		m.setFlag(FlagCF, f.aux&1 != 0)
		m.setFlag(FlagOF, false)
		m.setFlag(FlagAF, f.aux&2 != 0)
	case kImul:
		m.setResultFlags(f.res, w)
		m.setFlag(FlagCF, f.aux&1 != 0)
		m.setFlag(FlagOF, f.aux&1 != 0)
		m.setFlag(FlagAF, f.aux&2 != 0)
	}
	f.kind = kEager
}

// lazyCF returns the carry flag (0 or 1) without materializing.
func (s *state) lazyCF() uint64 {
	f := &s.fl
	switch f.kind {
	case kEager:
		return s.m.flagBit(FlagCF)
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
	default: // kShift, kImul
		return uint64(f.aux & 1)
	}
}

// lazyAF returns the adjust flag (0 or 1) without materializing.
func (s *state) lazyAF() uint64 {
	f := &s.fl
	switch f.kind {
	case kEager:
		return s.m.flagBit(FlagAF)
	case kAdd, kSub:
		return ((f.a ^ f.b ^ f.result()) >> 4) & 1
	case kLogic:
		return 0
	default: // kShift, kImul
		return uint64(f.aux >> 1 & 1)
	}
}

func (s *state) lazyZF() bool {
	f := &s.fl
	if f.kind == kEager {
		return s.m.flagBit(FlagZF) != 0
	}
	return f.result() == 0
}

func (s *state) lazySF() uint64 {
	f := &s.fl
	if f.kind == kEager {
		return s.m.flagBit(FlagSF)
	}
	return f.result() >> (8*uint(f.w) - 1) & 1
}

func (s *state) lazyPF() bool {
	f := &s.fl
	if f.kind == kEager {
		return s.m.flagBit(FlagPF) != 0
	}
	return bits.OnesCount8(uint8(f.result()))%2 == 0
}

func (s *state) lazyOF() uint64 {
	f := &s.fl
	switch f.kind {
	case kEager:
		return s.m.flagBit(FlagOF)
	case kAdd:
		res := f.result()
		return ((f.a ^ res) & (f.b ^ res)) >> (8*uint(f.w) - 1) & 1
	case kSub:
		res := f.result()
		return ((f.a ^ f.b) & (f.a ^ res)) >> (8*uint(f.w) - 1) & 1
	case kImul:
		return uint64(f.aux & 1)
	default: // kLogic, kShift
		return 0
	}
}
