package plan

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"e9patch/internal/e9err"
)

// TestBytesHexRoundTrip: machine code is hex in the rendering and the
// same bytes after the codec.
func TestBytesHexRoundTrip(t *testing.T) {
	p := &PatchPlan{
		Version:      Version,
		InputSHA256:  digest,
		DisasmDigest: digest,
		Sites: []Site{{
			Addr:   0x401000,
			Tactic: "B2",
			Writes: []Write{{Addr: 0x401000, Data: Bytes{0xE9, 0x00, 0xAB, 0xCD, 0xEF}}},
		}},
	}
	j, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(j, []byte(`"e900abcdef"`)) {
		t.Errorf("machine code not hex in the rendering:\n%s", j)
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Sites[0].Writes[0].Data, p.Sites[0].Writes[0].Data) {
		t.Errorf("bytes changed across round trip: %x", q.Sites[0].Writes[0].Data)
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	p := &PatchPlan{Version: Version + 1, InputSHA256: digest, DisasmDigest: digest}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc); !errors.Is(err, e9err.ErrUnsupported) || !strings.Contains(err.Error(), "version") {
		t.Errorf("want an unsupported-version error, got %v", err)
	}
	// A version 1 plan was JSON: unsupported, and the message says what to do.
	if _, err := Decode([]byte(`{"version": 1, "sites": []}`)); !errors.Is(err, e9err.ErrUnsupported) || !strings.Contains(err.Error(), "re-emit the plan") {
		t.Errorf("JSON plan: want unsupported with a re-emit hint, got %v", err)
	}
	for _, garbage := range [][]byte{nil, []byte("E9"), []byte("not a plan at all"), bytes.Repeat([]byte{0xFF}, 200)} {
		if _, err := Decode(garbage); !errors.Is(err, e9err.ErrMalformed) {
			t.Errorf("garbage %.8q: want malformed, got %v", garbage, err)
		}
	}
}

func TestInputBinding(t *testing.T) {
	in := []byte{1, 2, 3}
	p := &PatchPlan{Version: Version}
	if err := p.CheckInput(in); !errors.Is(err, e9err.ErrMalformed) {
		t.Errorf("unbound plan: %v, want malformed", err)
	}
	p.BindInput(in)
	if err := p.CheckInput(in); err != nil {
		t.Errorf("bound plan rejects its own input: %v", err)
	}
	if err := p.CheckInput([]byte{1, 2, 4}); err == nil {
		t.Error("bound plan accepted a different input")
	}
}

func TestAggregates(t *testing.T) {
	p := &PatchPlan{
		Version: Version,
		Sites: []Site{
			{Tactic: "B2", Writes: []Write{{Data: Bytes{1, 2, 3}}},
				Trampolines: []Trampoline{{Addr: 1}}},
			{Tactic: "T2", Writes: []Write{{Data: Bytes{4}}, {Data: Bytes{5, 6}}},
				Trampolines: []Trampoline{{Addr: 2}, {Addr: 3, Evictee: true}}},
			{Tactic: "none"},
			{Tactic: "B2"},
		},
	}
	tc := p.TacticCounts()
	if tc["B2"] != 2 || tc["T2"] != 1 || tc["none"] != 1 {
		t.Errorf("TacticCounts = %v", tc)
	}
	if got := p.TrampolineCount(); got != 3 {
		t.Errorf("TrampolineCount = %d, want 3", got)
	}
	if got := p.PatchedBytes(); got != 6 {
		t.Errorf("PatchedBytes = %d, want 6", got)
	}
}

// TestEncodeDeterminism pins that two structurally equal plans encode
// to identical bytes, and that a decoded plan encodes to its input.
func TestEncodeDeterminism(t *testing.T) {
	a, err := richPlan().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := richPlan().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("equal plans encoded differently")
	}
	q, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := q.Encode(); err != nil || !bytes.Equal(a, c) {
		t.Errorf("Decode → Encode changed the bytes (err %v)", err)
	}
}
