package e9patch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"e9patch/internal/plan"
)

// The serialized plan as an untrusted input (make plancheck runs the
// sweep, make fuzzshort explores the fuzzer): whatever the bytes,
// DecodePlan answers with a plan or with ErrMalformedBinary or
// ErrUnsupportedBinary, a plan it accepts encodes back to exactly those
// bytes, and Apply of an accepted plan is contained.

// Offsets into the fixed header (DESIGN.md §9).
const (
	planHeaderSize = 152
	planCountsOff  = 64 // six u32 counts: warnings … sigtab entries
)

// decodeContained is the property both tests check on one input.
func decodeContained(t *testing.T, label string, data, bin []byte) (*PatchPlan, error) {
	t.Helper()
	p, err := DecodePlan(data)
	if err != nil {
		if c := classify(err); c != "malformed" && c != "unsupported" {
			t.Errorf("%s: DecodePlan: %v, want ErrMalformedBinary or ErrUnsupportedBinary", label, err)
		}
		return nil, err
	}
	if reenc, err := p.Encode(); err != nil || !bytes.Equal(reenc, data) {
		t.Errorf("%s: DecodePlan accepted bytes that are not the plan's encoding (err %v)", label, err)
	}
	_, err = Apply(bin, p)
	requireContained(t, label+": apply", err)
	return p, err
}

// TestPlanTamperSweep damages the serialized plan of a real rewrite one
// place at a time.
func TestPlanTamperSweep(t *testing.T) {
	bin := branchyELF(t)
	p, err := Plan(bin, Config{Select: SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeContained(t, "intact", enc, bin); err != nil {
		t.Fatalf("the intact plan does not apply: %v", err)
	}
	mutated := func(f func(d []byte)) []byte {
		d := bytes.Clone(enc)
		f(d)
		return d
	}
	rejected := func(label string, data []byte, class error) {
		t.Helper()
		if _, err := decodeContained(t, label, data, bin); !errors.Is(err, class) {
			t.Errorf("%s: %v, want %v", label, err, class)
		}
	}

	// Every header byte. A changed scalar or digest is another plan, which
	// Apply then refuses (or, for an audit-only field, applies).
	for off := 0; off < planHeaderSize; off++ {
		decodeContained(t, "header byte", mutated(func(d []byte) { d[off] ^= 0xA5 }), bin)
	}
	rejected("magic", mutated(func(d []byte) { d[0] ^= 1 }), ErrMalformedBinary)
	rejected("version", mutated(func(d []byte) { d[4]++ }), ErrUnsupportedBinary)
	rejected("input digest", mutated(func(d []byte) { d[planCountsOff+24] ^= 1 }), ErrMalformedBinary)
	// A plan is bound to its input and its universe: a flags word with
	// either bit clear, over a zeroed digest, is not a plan.
	for flags := uint32(0); flags < 3; flags++ {
		rejected("unbound", mutated(func(d []byte) {
			binary.LittleEndian.PutUint32(d[8:], flags)
			if flags&1 == 0 {
				clear(d[planCountsOff+24 : planCountsOff+56])
			}
			if flags&2 == 0 {
				clear(d[planCountsOff+56 : planHeaderSize])
			}
		}), ErrMalformedBinary)
	}
	rejected("text length", mutated(func(d []byte) { d[32]++ }), ErrMalformedBinary)
	for i := 0; i < 6; i++ {
		off := planCountsOff + 4*i
		rejected("count inflated past the data", mutated(func(d []byte) { binary.LittleEndian.PutUint32(d[off:], 0xFFFF_FFFF) }), ErrMalformedBinary)
		rejected("count one over", mutated(func(d []byte) { binary.LittleEndian.PutUint32(d[off:], binary.LittleEndian.Uint32(d[off:])+1) }), ErrMalformedBinary)
	}

	// The first site follows the header and the mode name.
	if len(p.Warnings)+len(p.Injections) != 0 || len(p.Disasm) > 127 {
		t.Fatal("the sweep expects a plan without warnings or injections")
	}
	site := planHeaderSize + 1 + len(p.Disasm)
	_, n := binary.Uvarint(enc[site:])
	if code := enc[site+n] & 7; int(code) >= len(plan.TacticNames) || plan.TacticNames[code] != p.Sites[0].Tactic {
		t.Fatalf("did not find the first site's tactic byte at %d", site+n)
	}
	rejected("unknown tactic code", mutated(func(d []byte) { d[site+n] |= 7 }), ErrMalformedBinary)

	// A write the format carries faithfully and Apply must refuse.
	outside := *p
	outside.Sites = append([]plan.Site(nil), p.Sites...)
	for i := range outside.Sites {
		if len(outside.Sites[i].Writes) > 0 {
			w := outside.Sites[i].Writes[0]
			w.Addr = p.TextAddr + uint64(p.TextLen) - 1
			outside.Sites[i].Writes = []plan.Write{w}
			break
		}
	}
	oenc, err := outside.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rejected("write outside .text", oenc, ErrMalformedBinary)

	rejected("trailing garbage", append(bytes.Clone(enc), 0xCC), ErrMalformedBinary)
	rejected("two plans", append(bytes.Clone(enc), enc...), ErrMalformedBinary)
	for n := 0; n < len(enc); n++ {
		if n > 2*planHeaderSize && n%97 != 0 {
			continue
		}
		rejected("truncated", enc[:n], ErrMalformedBinary)
	}
	rendered, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rejected("the JSON rendering handed back", rendered, ErrUnsupportedBinary)
}

// FuzzPlanDecode explores the serialized plan, seeded with the encoded
// plan of every cell of the difftest corpus and truncations and bit
// flips of each. which picks the corpus binary an accepted plan is
// applied to. Plain `go test` replays the seeds.
func FuzzPlanDecode(f *testing.F) {
	corpus := planCorpus(f)
	for which, be := range corpus {
		for _, tc := range parallelCorpusConfigs {
			p, err := Plan(be.bin, tc.cfg)
			if err != nil {
				f.Fatalf("%s/%s: %v", be.name, tc.name, err)
			}
			enc, err := p.Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc, which)
			for _, n := range []int{len(enc) - 1, len(enc) / 2, planHeaderSize + 3, planHeaderSize, 64} {
				f.Add(enc[:n], which)
			}
			for _, off := range []int{4, 8, planCountsOff + 8, planCountsOff + 24, planHeaderSize + 1, len(enc) / 2, len(enc) - 1} {
				flipped := bytes.Clone(enc)
				flipped[off] ^= 0x10
				f.Add(flipped, which)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, which int) {
		decodeContained(t, "fuzz", data, corpus[uint(which)%uint(len(corpus))].bin)
	})
}
