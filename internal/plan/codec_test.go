package plan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"e9patch/internal/e9err"
)

// digest is a well-formed SHA-256 for plans that need one and nothing
// more.
var digest = strings.Repeat("cd", 32)

// richPlan uses every field the format has: both digests, warnings, an
// injection, a failed site, an eviction chain, a B0 binding, counts on
// and past each shape field's saturation point, site addresses that go
// down, up and below the text address, and offsets that wrap.
func richPlan() *PatchPlan {
	many := Site{Addr: 0x400ff0, Tactic: "T3", Pad: maxPad}
	for i := 0; i < 9; i++ {
		many.Writes = append(many.Writes, Write{Addr: many.Addr + uint64(i), Data: Bytes{byte(i)}})
		many.Trampolines = append(many.Trampolines, Trampoline{Addr: 0x7000_0000 + uint64(i), For: many.Addr, Code: Bytes{0xC3}})
		many.SigTab = append(many.SigTab, SigEntry{Int3: many.Addr, Trampoline: uint64(i)})
	}
	exact := Site{Addr: 0x401100, Tactic: "T1", Pad: 3}
	for i := 0; i < maxW; i++ {
		exact.Writes = append(exact.Writes, Write{Addr: exact.Addr, Data: nil})
	}
	return &PatchPlan{
		Version: Version, Bias: 0x5555_5555_4000, TextAddr: 0x401000, TextLen: 4096,
		InputSHA256:  strings.Repeat("ab", 32),
		DisasmDigest: strings.Repeat("0", 64), // all zero is a digest, not an absent one
		Granularity:  -1, SkipPrefix: 64, Disasm: "superset-cet", Insts: 900, BadBytes: 3,
		Warnings:   []string{"first", "", "third"},
		Injections: []Injection{{Addr: 0x7fff_0000_0000, Data: Bytes{1, 2, 3}}, {Addr: 1, Data: nil}},
		Sites: []Site{
			{Addr: 0x401800, Tactic: "B2", Writes: []Write{{Addr: 0x401800, Data: Bytes{0xE9, 1, 2, 3, 4}}},
				Trampolines: []Trampoline{{Addr: 0x10_0000, For: 0x401800, Code: Bytes{0x90, 0xE9, 0, 0, 0, 0}}}},
			{Addr: 0x401700, Tactic: "T2", Pad: 2,
				Writes: []Write{{Addr: 0x401705, Data: Bytes{0xEB, 0x10}}, {Addr: 0x401700, Data: Bytes{0x48, 0xE9, 9, 9, 9, 9}}},
				Trampolines: []Trampoline{
					{Addr: 0xFFFF_FFFF_FFFF_FFF0, For: 0x401705, Evictee: true, Code: Bytes{0xCC}},
					{Addr: 0, For: 0x401700, Code: nil}}},
			{Addr: 0x401600, Tactic: "none"},
			{Addr: 0x401900, Tactic: "B0", SigTab: []SigEntry{{Int3: 0x401900, Trampoline: 0x500000}}},
			many,
			exact,
			{Addr: 0xFFFF_FFFF_FFFF_FFFF, Tactic: "B1"},
			{Addr: 0, Tactic: "B1"},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, p := range []*PatchPlan{
		richPlan(),
		{Version: Version, InputSHA256: digest, DisasmDigest: digest},
		{Version: Version, InputSHA256: digest, DisasmDigest: digest, Sites: []Site{{Tactic: "none"}}},
	} {
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of an encoded plan: %v", err)
		}
		// The rendering shows every field and is blind to nil against empty.
		pj, _ := p.JSON()
		qj, _ := q.JSON()
		if !bytes.Equal(pj, qj) {
			t.Errorf("plan changed across the codec:\n--- in\n%s--- out\n%s", pj, qj)
		}
		if len(p.Sites) > 0 && !reflect.DeepEqual(p.Sites[0], q.Sites[0]) {
			t.Errorf("first site changed: %+v != %+v", p.Sites[0], q.Sites[0])
		}
	}
}

// TestDecodeAliasesInput pins the documented aliasing: byte fields are
// views of the input, capped so an append cannot reach what follows.
func TestDecodeAliasesInput(t *testing.T) {
	enc, err := richPlan().Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	d := q.Sites[0].Writes[0].Data
	i := bytes.Index(enc, d)
	if i < 0 || &enc[i] != &d[0] {
		t.Fatal("write data is a copy, not a view of the input")
	}
	if cap(d) != len(d) {
		t.Errorf("view has cap %d for len %d: an append would write into the input", cap(d), len(d))
	}
}

func TestEncodeRejectsUnrepresentable(t *testing.T) {
	for name, mut := range map[string]func(*PatchPlan){
		"unknown tactic":  func(p *PatchPlan) { p.Sites[0].Tactic = "B9" },
		"pad too large":   func(p *PatchPlan) { p.Sites[0].Pad = maxPad + 1 },
		"negative pad":    func(p *PatchPlan) { p.Sites[0].Pad = -1 },
		"short digest":    func(p *PatchPlan) { p.InputSHA256 = "abcd" },
		"no input digest": func(p *PatchPlan) { p.InputSHA256 = "" },
		"no universe":     func(p *PatchPlan) { p.DisasmDigest = "" },
		"upper-case hex":  func(p *PatchPlan) { p.DisasmDigest = strings.Repeat("AB", 32) },
		"not hex":         func(p *PatchPlan) { p.InputSHA256 = strings.Repeat("zz", 32) },
		"negative size":   func(p *PatchPlan) { p.TextLen = -1 },
		"granularity":     func(p *PatchPlan) { p.Granularity = 1 << 40 },
	} {
		p := richPlan()
		mut(p)
		if _, err := p.Encode(); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// classified fails the test unless err is one of the two classes a
// decoder may answer with.
func classified(t *testing.T, label string, err error) {
	t.Helper()
	var ee *e9err.Error
	if !errors.As(err, &ee) || (ee.Class != e9err.ErrMalformed && ee.Class != e9err.ErrUnsupported) {
		t.Errorf("%s: %v, want a classified malformed or unsupported error", label, err)
	}
}

// TestDecodeTamperSweep damages an encoded plan one place at a time:
// each fixed header field, each count pushed past what the data could
// hold, the tactic byte, every varint padded, every truncation, and
// bytes added at the end. Decode must answer each with a classified
// error, or, where the damage yields another valid plan (a changed
// scalar), with a plan that encodes back to exactly the damaged bytes.
func TestDecodeTamperSweep(t *testing.T) {
	enc, err := richPlan().Encode()
	if err != nil {
		t.Fatal(err)
	}
	try := func(label string, data []byte, mustFail bool) {
		t.Helper()
		p, err := Decode(data)
		if err != nil {
			classified(t, label, err)
			return
		}
		if mustFail {
			t.Errorf("%s: decoded", label)
			return
		}
		if re, err := p.Encode(); err != nil || !bytes.Equal(re, data) {
			t.Errorf("%s: accepted, but encodes back differently (err %v)", label, err)
		}
	}
	le := binary.LittleEndian
	mutated := func(f func(d []byte)) []byte {
		d := bytes.Clone(enc)
		f(d)
		return d
	}

	try("magic", mutated(func(d []byte) { d[0] = 'e' }), true)
	try("version 1", mutated(func(d []byte) { le.PutUint32(d[4:], 1) }), true)
	try("version 3", mutated(func(d []byte) { le.PutUint32(d[4:], 3) }), true)
	try("unknown flag", mutated(func(d []byte) { d[8] |= 4 }), true)
	try("flag cleared over a digest", mutated(func(d []byte) { d[8] &^= flagInputBound }), true)
	// Flags 0, 1 and 2 with the unflagged digests zeroed: a plan not
	// bound to its input or its universe is no plan.
	for flags := uint32(0); flags < flagInputBound|flagUniverse; flags++ {
		d := mutated(func(d []byte) {
			le.PutUint32(d[8:], flags)
			if flags&flagInputBound == 0 {
				clear(d[offInputSHA:offUniverseDigest])
			}
			if flags&flagUniverse == 0 {
				clear(d[offUniverseDigest:headerSize])
			}
		})
		if _, err := Decode(d); !errors.Is(err, e9err.ErrMalformed) {
			t.Errorf("flags %d over zeroed digests: %v, want malformed", flags, err)
		}
	}
	try("text length beyond int", mutated(func(d []byte) { le.PutUint64(d[32:], 1<<63) }), true)
	try("instructions beyond int", mutated(func(d []byte) { le.PutUint64(d[48:], 1<<63) }), true)
	try("bad bytes beyond int", mutated(func(d []byte) { le.PutUint64(d[56:], 1<<63) }), true)
	for i := 0; i < 6; i++ {
		off := offCounts + 4*i
		try("count inflated", mutated(func(d []byte) { le.PutUint32(d[off:], 0xFFFF_FFFF) }), true)
		try("count one over", mutated(func(d []byte) { le.PutUint32(d[off:], le.Uint32(d[off:])+1) }), true)
		try("count one under", mutated(func(d []byte) { le.PutUint32(d[off:], le.Uint32(d[off:])-1) }), true)
	}
	// Every other header byte is a scalar or a digest: any value is a plan.
	for off := 12; off < headerSize; off++ {
		if off >= 32 && off < 40 || off >= 48 && off < offInputSHA {
			continue // sizes and counts, covered above
		}
		try("header byte", mutated(func(d []byte) { d[off] ^= 0x55 }), false)
	}

	// The first site follows the mode name, three warnings and two injections.
	r := &reader{data: enc, off: headerSize}
	r.run(r.uv())
	for i := 0; i < 3; i++ {
		r.run(r.uv())
	}
	for i := 0; i < 2; i++ {
		r.uv()
		r.run(r.uv())
	}
	r.uv()
	if r.bad || enc[r.off]&7 != 2 {
		t.Fatalf("did not find the first site's tactic byte at %d", r.off)
	}
	try("unknown tactic code", mutated(func(d []byte) { d[r.off] |= 7 }), true)

	try("trailing byte", append(bytes.Clone(enc), 0), true)
	try("trailing plan", append(bytes.Clone(enc), enc...), true)
	for n := 0; n < len(enc); n++ {
		try("truncated", enc[:n], true)
	}
	// A padded varint reads as the same value: the one encoding rule
	// refuses it. Pad the mode name's length, 0x0c, as 0x8c 0x00.
	padded := append(bytes.Clone(enc[:headerSize]), 0x8c, 0x00)
	try("padded varint", append(padded, enc[headerSize+1:]...), true)
	// Every single-bit flip of the body: classified, or a different plan.
	for off := headerSize; off < len(enc); off++ {
		for bit := 0; bit < 8; bit++ {
			try("bit flip", mutated(func(d []byte) { d[off] ^= 1 << bit }), false)
		}
	}
}

// TestDecodeAllocationBound: a header's counts are claims, and Decode
// reserves nothing for a claim the data behind it could not back. A
// header-only input claiming 2^32-1 of everything allocates an error
// and nothing else; so does the 64-byte input of the same shape (cut
// inside the header); and a well-formed plan allocates a small multiple
// of its size in a fixed number of allocations.
func TestDecodeAllocationBound(t *testing.T) {
	hostile := make([]byte, headerSize+8)
	copy(hostile, magic)
	binary.LittleEndian.PutUint32(hostile[4:], Version)
	for i := 0; i < 6; i++ {
		binary.LittleEndian.PutUint32(hostile[offCounts+4*i:], 0xFFFF_FFFF)
	}
	for _, in := range [][]byte{hostile, hostile[:64]} {
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(10, func() { _, err = Decode(in) })
		runtime.ReadMemStats(&after)
		classified(t, "hostile counts", err)
		if allocs > 8 {
			t.Errorf("%d-byte hostile header: %v allocations per decode", len(in), allocs)
		}
		if got := (after.TotalAlloc - before.TotalAlloc) / 11; got > 64*uint64(len(in)) {
			t.Errorf("%d-byte hostile header: %d bytes allocated per decode", len(in), got)
		}
	}

	// Honest counts that the data cannot back either: 1 000 sites claimed
	// over 10 bytes of body.
	short := bytes.Clone(hostile)
	for i := 0; i < 6; i++ {
		binary.LittleEndian.PutUint32(short[offCounts+4*i:], 0)
	}
	binary.LittleEndian.PutUint32(short[offCounts+8:], 1000)
	if _, err := Decode(short); err == nil {
		t.Error("1000 sites in 8 bytes: decoded")
	}

	enc, err := richPlan().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(10, func() { Decode(enc) })
	runtime.ReadMemStats(&after)
	// The plan, six slices, two digests, the mode name and the warnings.
	if allocs > 16 {
		t.Errorf("well-formed plan: %v allocations per decode, want a fixed few", allocs)
	}
	// A site is 104 bytes in memory for at least 3 on the wire.
	if got := (after.TotalAlloc - before.TotalAlloc) / 11; got > 40*uint64(len(enc)) {
		t.Errorf("well-formed plan of %d bytes: %d bytes allocated per decode", len(enc), got)
	}
}

func BenchmarkCodec(b *testing.B) {
	p := richPlan()
	site := p.Sites[0]
	p.Sites = nil
	for i := 0; i < 2000; i++ {
		s := site
		s.Addr -= uint64(7 * i)
		p.Sites = append(p.Sites, s)
	}
	enc, err := p.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			p.Encode()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			Decode(enc)
		}
	})
}
