package plan

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"e9patch/internal/e9err"
)

// The serialized plan (DESIGN.md §8 has the grammar as a table). A fixed
// little-endian header carries the scalars, the two digests raw, and
// the total element counts, so a decoder sizes everything once:
//
//	 0  magic "E9PL"        4   64  warnings       u32
//	 4  version      u32        68  injections     u32
//	 8  flags        u32        72  sites          u32
//	12  granularity  i32        76  writes         u32
//	16  bias         u64        80  trampolines    u32
//	24  text address u64        84  sigtab entries u32
//	32  text length  u64        88  input SHA-256  32
//	40  skip prefix  u64       120  universe digest 32
//	48  instructions u64       152  (body)
//	56  bad bytes    u64
//
// The body is the disasm mode name, the warnings and the injections
// (length-prefixed), then the sites in recorded order:
//
//	site   = zz(addr - previous site's addr, or the text address) ,
//	         tactic | pad<<3 , shape , writes , trampolines , sigtab
//	shape  = nW | nT<<3 | nS<<6 ; a field at its maximum (7, 7, 3) is
//	         followed by uv(count - maximum)
//	write  = zz(addr - site) , uv(len) , bytes
//	tramp  = zz(addr - site) , zz(for - site) , uv(len<<1 | evictee) , bytes
//	sigtab = zz(int3 - site) , zz(trampoline - site)
//
// uv is an unsigned LEB128 varint in its shortest form and zz a
// zig-zag-coded signed difference taken modulo 2^64, so every address
// survives whatever it is. One plan has one encoding: Decode refuses
// anything Encode would not have written (a padded varint, a flags word
// other than both bits, trailing bytes), which is what lets a plan be
// cached and compared by its bytes.
const (
	magic      = "E9PL"
	headerSize = 152

	flagInputBound = 1 << 0 // InputSHA256 is set
	flagUniverse   = 1 << 1 // DisasmDigest is set

	maxPad            = 31 // pad shares a byte with the 3-bit tactic code
	maxW, maxT, maxS  = 7, 7, 3
	offCounts         = 64
	offInputSHA       = 88
	offUniverseDigest = 120
)

// The least a decoder reads per element: what a count in the header is
// checked against before anything is allocated for it.
const (
	minString    = 1 // uv(0)
	minInjection = 2 // uv(addr) uv(0)
	minSite      = 3 // zz, tactic byte, shape byte
	minWrite     = 2
	minTramp     = 3
	minSigEntry  = 2
)

func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// digestBytes parses a hex SHA-256 field into its raw form.
func digestBytes(dst []byte, field, s string) error {
	if len(s) != 2*len(dst) {
		return fmt.Errorf("plan: encode: %s is not a hex SHA-256", field)
	}
	if _, err := hex.Decode(dst, []byte(s)); err != nil || hex.EncodeToString(dst) != s {
		return fmt.Errorf("plan: encode: %s is not a lowercase hex SHA-256", field)
	}
	return nil
}

// Encode serializes the plan. Identical plans encode to identical
// bytes; a plan the format cannot represent (an unknown tactic name, a
// pad above 31, a digest that is missing or not a SHA-256, a negative
// size) is an error. The result shares no memory with the plan.
func (p *PatchPlan) Encode() ([]byte, error) {
	var nW, nT, nS, nBytes int
	for i := range p.Sites {
		s := &p.Sites[i]
		nW += len(s.Writes)
		nT += len(s.Trampolines)
		nS += len(s.SigTab)
		for j := range s.Writes {
			nBytes += len(s.Writes[j].Data)
		}
		for j := range s.Trampolines {
			nBytes += len(s.Trampolines[j].Code)
		}
	}
	nBytes += len(p.Disasm) + 1
	for _, w := range p.Warnings {
		nBytes += len(w) + 2
	}
	for i := range p.Injections {
		nBytes += len(p.Injections[i].Data) + 12
	}
	switch {
	case p.Version < 0 || int64(p.Version) > math.MaxUint32:
		return nil, fmt.Errorf("plan: encode: version %d out of range", p.Version)
	case p.Granularity < math.MinInt32 || p.Granularity > math.MaxInt32:
		return nil, fmt.Errorf("plan: encode: granularity %d out of range", p.Granularity)
	case p.TextLen < 0 || p.Insts < 0 || p.BadBytes < 0:
		return nil, fmt.Errorf("plan: encode: negative text length, instruction or bad-byte count")
	}
	counts := [6]int{len(p.Warnings), len(p.Injections), len(p.Sites), nW, nT, nS}
	for _, n := range counts {
		if int64(n) > math.MaxUint32 {
			return nil, fmt.Errorf("plan: encode: %d elements exceed the format's 32-bit counts", n)
		}
	}

	// Sized for the usual widths (a site delta of two bytes, offsets
	// within ±2 GB); a plan with wider ones grows the buffer once.
	out := make([]byte, headerSize, headerSize+nBytes+4*len(p.Sites)+2*nW+7*nT+7*nS)
	le := binary.LittleEndian
	copy(out, magic)
	le.PutUint32(out[4:], uint32(p.Version))
	le.PutUint32(out[12:], uint32(int32(p.Granularity)))
	le.PutUint64(out[16:], p.Bias)
	le.PutUint64(out[24:], p.TextAddr)
	le.PutUint64(out[32:], uint64(p.TextLen))
	le.PutUint64(out[40:], p.SkipPrefix)
	le.PutUint64(out[48:], uint64(p.Insts))
	le.PutUint64(out[56:], uint64(p.BadBytes))
	for i, n := range counts {
		le.PutUint32(out[offCounts+4*i:], uint32(n))
	}
	le.PutUint32(out[8:], flagInputBound|flagUniverse)
	if err := digestBytes(out[offInputSHA:offInputSHA+32], "inputSha256", p.InputSHA256); err != nil {
		return nil, err
	}
	if err := digestBytes(out[offUniverseDigest:headerSize], "disasmDigest", p.DisasmDigest); err != nil {
		return nil, err
	}

	str := func(s string) {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	str(p.Disasm)
	for _, w := range p.Warnings {
		str(w)
	}
	for i := range p.Injections {
		inj := &p.Injections[i]
		out = binary.AppendUvarint(out, inj.Addr)
		out = binary.AppendUvarint(out, uint64(len(inj.Data)))
		out = append(out, inj.Data...)
	}
	prev := p.TextAddr
	for i := range p.Sites {
		s := &p.Sites[i]
		tac := slices.Index(TacticNames[:], s.Tactic)
		if tac < 0 || s.Pad < 0 || s.Pad > maxPad {
			return nil, fmt.Errorf("plan: encode: site %#x: tactic %q with pad %d is not representable", s.Addr, s.Tactic, s.Pad)
		}
		out = binary.AppendUvarint(out, zigzag(s.Addr-prev))
		prev = s.Addr
		w, t, g := len(s.Writes), len(s.Trampolines), len(s.SigTab)
		out = append(out, byte(tac|s.Pad<<3), byte(min(w, maxW)|min(t, maxT)<<3|min(g, maxS)<<6))
		if w >= maxW {
			out = binary.AppendUvarint(out, uint64(w-maxW))
		}
		if t >= maxT {
			out = binary.AppendUvarint(out, uint64(t-maxT))
		}
		if g >= maxS {
			out = binary.AppendUvarint(out, uint64(g-maxS))
		}
		for j := range s.Writes {
			wr := &s.Writes[j]
			out = binary.AppendUvarint(out, zigzag(wr.Addr-s.Addr))
			out = binary.AppendUvarint(out, uint64(len(wr.Data)))
			out = append(out, wr.Data...)
		}
		for j := range s.Trampolines {
			tr := &s.Trampolines[j]
			n := uint64(len(tr.Code)) << 1
			if tr.Evictee {
				n |= 1
			}
			out = binary.AppendUvarint(out, zigzag(tr.Addr-s.Addr))
			out = binary.AppendUvarint(out, zigzag(tr.For-s.Addr))
			out = binary.AppendUvarint(out, n)
			out = append(out, tr.Code...)
		}
		for _, se := range s.SigTab {
			out = binary.AppendUvarint(out, zigzag(se.Int3-s.Addr))
			out = binary.AppendUvarint(out, zigzag(se.Trampoline-s.Addr))
		}
	}
	return out, nil
}

// reader walks the body. A read past the end, or a varint Encode would
// not have written, sets bad and yields zeros: callers check bad once
// per element, not once per field.
type reader struct {
	data []byte
	off  int
	bad  bool
}

func (r *reader) byte() byte {
	if r.off >= len(r.data) {
		r.bad = true
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *reader) uv() uint64 {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || (n > 1 && r.data[r.off+n-1] == 0) {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// run returns the next n bytes as a view of the input, capped so an
// append to it cannot reach the bytes that follow.
func (r *reader) run(n uint64) []byte {
	if n > uint64(len(r.data)-r.off) {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	end := r.off + int(n)
	b := r.data[r.off:end:end]
	r.off = end
	return b
}

// count reads a shape field's element count: the field itself, plus a
// varint extension when it is saturated. limit is what the header's
// total still allows; a count above it is malformed.
func (r *reader) count(field, sat, limit int) int {
	n := uint64(field)
	if field == sat {
		if n = r.uv(); n <= uint64(limit) {
			n += uint64(sat)
		}
	}
	if n > uint64(limit) {
		r.bad = true
		return 0
	}
	return int(n)
}

// Decode parses a serialized plan. Every count is checked against the
// bytes that remain before anything is allocated for it, so a hostile
// header cannot reserve more than a fixed multiple of len(data), and
// the element slices are carved from one array per kind.
//
// The byte fields of the result (write data, trampoline code, injection
// data) are views into data, not copies: the caller must leave data
// unmodified for as long as the plan is in use.
//
// Data that is not a plan, or is cut short or padded, is malformed; a
// well-formed plan of another schema version, the JSON form of version 1
// included, is unsupported.
func Decode(data []byte) (*PatchPlan, error) {
	if len(data) > 0 && data[0] == '{' {
		return nil, e9err.Unsupported("plan", "plan: this is JSON, a version 1 plan or the rendering of one, and this build reads the binary form of version %d: re-emit the plan", Version)
	}
	if len(data) < 8 || string(data[:4]) != magic {
		return nil, e9err.Malformed("plan", "plan: decode: not a serialized plan (no %q magic in %d bytes)", magic, len(data))
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[4:]); v != Version {
		return nil, e9err.Unsupported("plan", "plan: unsupported version %d (this build understands %d): re-emit the plan", v, Version)
	}
	if len(data) < headerSize {
		return nil, e9err.Malformed("plan", "plan: decode: header truncated at %d of %d bytes", len(data), headerSize)
	}
	if flags := le.Uint32(data[8:]); flags != flagInputBound|flagUniverse {
		return nil, e9err.Malformed("plan", "plan: decode: flags %#x, want %#x: a plan is bound to its input and its instruction universe", flags, flagInputBound|flagUniverse)
	}
	textLen, insts, badBytes := le.Uint64(data[32:]), le.Uint64(data[48:]), le.Uint64(data[56:])
	if textLen > math.MaxInt64 || insts > math.MaxInt64 || badBytes > math.MaxInt64 {
		return nil, e9err.Malformed("plan", "plan: decode: header field out of range")
	}
	var n [6]int // warnings, injections, sites, writes, trampolines, sigtab
	need := uint64(minString)
	for i, least := range []uint64{minString, minInjection, minSite, minWrite, minTramp, minSigEntry} {
		c := le.Uint32(data[offCounts+4*i:])
		n[i] = int(c)
		need += uint64(c) * least
	}
	if need > uint64(len(data)-headerSize) {
		return nil, e9err.Malformed("plan", "plan: decode: header counts need %d bytes, %d follow", need, len(data)-headerSize)
	}
	p := &PatchPlan{
		Version:      Version,
		Bias:         le.Uint64(data[16:]),
		TextAddr:     le.Uint64(data[24:]),
		TextLen:      int(textLen),
		Granularity:  int(int32(le.Uint32(data[12:]))),
		SkipPrefix:   le.Uint64(data[40:]),
		Insts:        int(insts),
		BadBytes:     int(badBytes),
		InputSHA256:  hex.EncodeToString(data[offInputSHA : offInputSHA+32]),
		DisasmDigest: hex.EncodeToString(data[offUniverseDigest:headerSize]),
	}

	r := &reader{data: data, off: headerSize}
	p.Disasm = string(r.run(r.uv()))
	if n[0] > 0 {
		p.Warnings = make([]string, n[0])
		for i := range p.Warnings {
			p.Warnings[i] = string(r.run(r.uv()))
		}
	}
	if n[1] > 0 {
		p.Injections = make([]Injection, n[1])
		for i := range p.Injections {
			p.Injections[i].Addr = r.uv()
			p.Injections[i].Data = r.run(r.uv())
		}
	}
	if r.bad {
		return nil, e9err.Malformed("plan", "plan: decode: preamble malformed or truncated near offset %d", r.off)
	}
	if n[2] > 0 {
		p.Sites = make([]Site, n[2])
	}
	writes := make([]Write, n[3])
	tramps := make([]Trampoline, n[4])
	sigs := make([]SigEntry, n[5])
	prev := p.TextAddr
	for i := range p.Sites {
		s := &p.Sites[i]
		at := r.off
		s.Addr = prev + unzigzag(r.uv())
		prev = s.Addr
		tp, shape := r.byte(), r.byte()
		if int(tp&7) >= len(TacticNames) {
			return nil, e9err.MalformedAt("plan", s.Addr, "plan: decode: unknown tactic code %d at offset %d", tp&7, at)
		}
		s.Tactic, s.Pad = TacticNames[tp&7], int(tp>>3)
		nw := r.count(int(shape&7), maxW, len(writes))
		nt := r.count(int(shape>>3&7), maxT, len(tramps))
		ns := r.count(int(shape>>6), maxS, len(sigs))
		if r.bad {
			return nil, e9err.MalformedAt("plan", s.Addr, "plan: decode: site %d malformed, truncated or over the header's counts at offset %d", i, at)
		}
		if nw > 0 {
			s.Writes, writes = writes[:nw:nw], writes[nw:]
			for j := range s.Writes {
				s.Writes[j].Addr = s.Addr + unzigzag(r.uv())
				s.Writes[j].Data = r.run(r.uv())
			}
		}
		if nt > 0 {
			s.Trampolines, tramps = tramps[:nt:nt], tramps[nt:]
			for j := range s.Trampolines {
				tr := &s.Trampolines[j]
				tr.Addr = s.Addr + unzigzag(r.uv())
				tr.For = s.Addr + unzigzag(r.uv())
				n := r.uv()
				tr.Evictee = n&1 != 0
				tr.Code = r.run(n >> 1)
			}
		}
		if ns > 0 {
			s.SigTab, sigs = sigs[:ns:ns], sigs[ns:]
			for j := range s.SigTab {
				s.SigTab[j].Int3 = s.Addr + unzigzag(r.uv())
				s.SigTab[j].Trampoline = s.Addr + unzigzag(r.uv())
			}
		}
		if r.bad {
			return nil, e9err.MalformedAt("plan", s.Addr, "plan: decode: site %d malformed or truncated near offset %d", i, r.off)
		}
	}
	if len(writes)+len(tramps)+len(sigs) != 0 || r.off != len(data) {
		return nil, e9err.Malformed("plan", "plan: decode: %d bytes and %d elements the header counted are left after the last site",
			len(data)-r.off, len(writes)+len(tramps)+len(sigs))
	}
	return p, nil
}
