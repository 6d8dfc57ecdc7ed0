package rpc

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e9patch"
	"e9patch/internal/e9err"
	"e9patch/internal/patch"
	"e9patch/internal/workload"
)

// testBin builds a small real binary for protocol sessions.
func testBin(t testing.TB) []byte {
	t.Helper()
	prog, err := workload.BuildKernel("branchy", false)
	if err != nil {
		t.Fatal(err)
	}
	return prog.ELF
}

// serveString runs one session over a literal stream and returns the
// response transcript and the session error.
func serveString(t testing.TB, stream string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := Serve(context.Background(), strings.NewReader(stream), &out)
	return out.String(), err
}

// TestSessionEndToEnd drives the full grammar with an inline base64
// binary and checks the emitted bytes equal the library's single-shot
// Rewrite — the protocol is a transport, not a different rewriter.
func TestSessionEndToEnd(t *testing.T) {
	bin := testBin(t)
	want, err := e9patch.Rewrite(bin, e9patch.Config{Select: e9patch.SelectJumps})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	outPath := filepath.Join(dir, "out.bin")
	stream := fmt.Sprintf(`{"jsonrpc":"2.0","method":"binary","params":{"data":%q},"id":1}
{"jsonrpc":"2.0","method":"patch","params":{"match":"branch"},"id":2}
{"jsonrpc":"2.0","method":"emit","params":{"output":%q},"id":3}
`, base64.StdEncoding.EncodeToString(bin), outPath)

	transcript, err := serveString(t, stream)
	if err != nil {
		t.Fatalf("serve: %v\ntranscript: %s", err, transcript)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Output, got) {
		t.Fatal("protocol session output differs from single-shot Rewrite")
	}
	// Every id-carrying request got a response line.
	if n := strings.Count(transcript, "\n"); n != 3 {
		t.Fatalf("want 3 response lines, got %d: %s", n, transcript)
	}
	if strings.Contains(transcript, "\"error\"") {
		t.Fatalf("unexpected error in transcript: %s", transcript)
	}
}

// TestSessionEmitStreamsOutput checks an emit with an output path: the
// file holds the single-shot Rewrite's bytes, and the session's Result
// carries none, because the output was streamed rather than built.
func TestSessionEmitStreamsOutput(t *testing.T) {
	bin := testBin(t)
	want, err := e9patch.Rewrite(bin, e9patch.Config{Select: e9patch.SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(t.TempDir(), "out.bin")
	stream := fmt.Sprintf(`{"method":"binary","params":{"data":%q},"id":1}
{"method":"patch","params":{"match":"branch"},"id":2}
{"method":"emit","params":{"output":%q},"id":3}
`, base64.StdEncoding.EncodeToString(bin), outPath)
	s := NewSession()
	defer s.Close()
	d := NewDecoder(strings.NewReader(stream))
	for {
		msg, err := d.Next()
		if err != nil {
			break
		}
		if _, err := s.Handle(context.Background(), msg); err != nil {
			t.Fatalf("%s: %v", msg.Method, err)
		}
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Output, got) {
		t.Error("the streamed output differs from single-shot Rewrite")
	}
	res := s.Result()
	if res == nil {
		t.Fatal("no result after emit")
	}
	if res.Output != nil || res.OutputSize != len(got) {
		t.Errorf("Result after a streamed emit: Output of %d bytes, OutputSize %d; want none and %d", len(res.Output), res.OutputSize, len(got))
	}
}

// TestSessionFramedBinary sends the size-framed form of binary (a size,
// then the raw bytes) that the protocol does not accept: the session
// must end at the binary message as malformed, with nothing loaded. The
// same binary sent inline, patched at hex-string addresses, must give
// the single-shot Rewrite's bytes.
func TestSessionFramedBinary(t *testing.T) {
	bin := testBin(t)
	want, err := e9patch.Rewrite(bin, e9patch.Config{Select: e9patch.SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, loc := range want.Locations {
		addrs = append(addrs, fmt.Sprintf("\"%#x\"", loc.Addr))
	}
	tail := fmt.Sprintf(`{"method":"patch","params":{"addrs":[%s]},"id":2}`+"\n"+`{"method":"emit","id":3}`+"\n", strings.Join(addrs, ","))

	framed := fmt.Sprintf(`{"method":"binary","params":{"size":%d},"id":1}`+"\n%s\n%s", len(bin), bin, tail)
	transcript, err := serveString(t, framed)
	if !errors.Is(err, e9err.ErrMalformed) {
		t.Fatalf("framed binary: want ErrMalformed, got %v\ntranscript: %s", err, transcript)
	}
	if lines := strings.Split(strings.TrimSpace(transcript), "\n"); len(lines) != 1 || !strings.Contains(lines[0], `"error"`) {
		t.Fatalf("want one error response for the binary message, got: %s", transcript)
	}

	inline := fmt.Sprintf(`{"method":"binary","params":{"data":%q},"id":1}`+"\n%s", base64.StdEncoding.EncodeToString(bin), tail)
	s := NewSession()
	defer s.Close()
	d := NewDecoder(strings.NewReader(inline))
	ctx := context.Background()
	for {
		msg, err := d.Next()
		if err != nil {
			break
		}
		if _, err := s.Handle(ctx, msg); err != nil {
			t.Fatalf("%s: %v", msg.Method, err)
		}
	}
	if !s.Done() {
		t.Fatal("session did not reach emit")
	}
	if !bytes.Equal(want.Output, s.Result().Output) {
		t.Fatal("inline session output differs from single-shot Rewrite")
	}
}

// TestSessionAbuse sweeps the hostile streams: truncation, grammar
// violations, oversized messages, bad numbers. Every case must yield a
// classified e9err error of the right class — and never a panic.
func TestSessionAbuse(t *testing.T) {
	bin := testBin(t)
	b64 := base64.StdEncoding.EncodeToString(bin)
	binMsg := fmt.Sprintf(`{"method":"binary","params":{"data":%q}}`, b64)

	cases := []struct {
		name   string
		stream string
		class  error
	}{
		{"patch-before-binary", `{"method":"patch","params":{"match":"branch"}}`, e9err.ErrMalformed},
		{"emit-before-binary", `{"method":"emit"}`, e9err.ErrMalformed},
		{"double-binary", binMsg + "\n" + binMsg, e9err.ErrMalformed},
		{"double-emit", binMsg + "\n" + `{"method":"emit"}` + "\n" + `{"method":"emit"}`, e9err.ErrMalformed},
		{"option-after-binary", binMsg + "\n" + `{"method":"option","params":{"b0Fallback":true}}`, e9err.ErrMalformed},
		{"truncated-stream", binMsg + "\n" + `{"method":"patch","params":{"match":"branch"}}`, e9err.ErrMalformed},
		{"empty-stream", "", e9err.ErrMalformed},
		{"bad-json", `{"method":`, e9err.ErrMalformed},
		{"trailing-garbage", `{"method":"emit"} {"x":1}`, e9err.ErrMalformed},
		{"no-method", `{"id":1}`, e9err.ErrMalformed},
		{"bad-version", `{"jsonrpc":"1.0","method":"emit"}`, e9err.ErrUnsupported},
		{"unknown-method", `{"method":"trampoline"}`, e9err.ErrUnsupported},
		{"unknown-option", `{"method":"option","params":{"granlarity":2}}`, e9err.ErrMalformed},
		{"removed-option", `{"method":"option","params":{"forceB0":true}}`, e9err.ErrMalformed},
		{"output-unwritable", binMsg + "\n" + fmt.Sprintf(`{"method":"emit","params":{"output":%q}}`, filepath.Join(t.TempDir(), "no", "such", "out")), e9err.ErrOutput},
		{"binary-no-source", `{"method":"binary","params":{}}`, e9err.ErrMalformed},
		{"binary-two-sources", fmt.Sprintf(`{"method":"binary","params":{"data":%q,"filename":"/etc/hostname"}}`, b64), e9err.ErrMalformed},
		// A binary travels by path or inline; a size-framed payload is
		// not part of the protocol, so size is a misspelling like any
		// other, whatever it declares, and the raw bytes after it are
		// never read.
		{"negative-size", `{"method":"binary","params":{"size":-1}}`, e9err.ErrMalformed},
		{"framed-too-large", `{"method":"binary","params":{"size":1099511627776}}` + "\nabc", e9err.ErrMalformed},
		{"framed-truncated", `{"method":"binary","params":{"size":1024}}` + "\nshort", e9err.ErrMalformed},
		{"patch-no-source", binMsg + "\n" + `{"method":"patch","params":{}}`, e9err.ErrMalformed},
		{"patch-two-sources", binMsg + "\n" + `{"method":"patch","params":{"addrs":["0x401000"],"match":"jcc"}}`, e9err.ErrMalformed},
		// match names the paper's applications, and an emit writes one
		// format: app and format are misspellings too.
		{"patch-app", binMsg + "\n" + `{"method":"patch","params":{"app":"jumps"}}`, e9err.ErrMalformed},
		{"emit-format", binMsg + "\n" + `{"method":"emit","params":{"format":"binary"}}`, e9err.ErrMalformed},
		{"bad-match-expr", binMsg + "\n" + `{"method":"patch","params":{"match":"jcc &&& x"}}`, e9err.ErrBadSpec},
		{"bad-number", binMsg + "\n" + `{"method":"patch","params":{"addrs":["0xZZ"]}}`, e9err.ErrMalformed},
		{"empty-reserve", `{"method":"reserve","params":{"ranges":[{"lo":"0x2000","hi":"0x1000"}]}}`, e9err.ErrMalformed},
		{"oversized-message", `{"method":"option","params":{"` + strings.Repeat("a", maxLineBytes) + `":1}}`, e9err.ErrResourceLimit},
		{"inline-too-large", `{"method":"binary","params":{"data":"` + strings.Repeat("A", maxLineBytes) + `"}}`, e9err.ErrResourceLimit},
		{"not-an-elf", `{"method":"binary","params":{"data":"aGVsbG8="}}`, e9err.ErrMalformed},
	}
	unknownField := map[string]string{"patch-app": "app", "emit-format": "format"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			transcript, err := serveString(t, tc.stream)
			if err == nil {
				t.Fatalf("want %v, got success\ntranscript: %s", tc.class, transcript)
			}
			if !errors.Is(err, tc.class) {
				t.Fatalf("want class %v, got %v", tc.class, err)
			}
			if f, ok := unknownField[tc.name]; ok && !strings.Contains(err.Error(), fmt.Sprintf("unknown field %q", f)) {
				t.Fatalf("want the unknown-field error for %q, got %v", f, err)
			}
			var e *e9err.Error
			if !errors.As(err, &e) {
				t.Fatalf("error is not classified: %v", err)
			}
			// The failure must also be reported on the wire, as the last
			// line, with the matching JSON-RPC code.
			lines := strings.Split(strings.TrimSpace(transcript), "\n")
			last := lines[len(lines)-1]
			var resp struct {
				Error *Error `json:"error"`
			}
			if jerr := json.Unmarshal([]byte(last), &resp); jerr != nil || resp.Error == nil {
				t.Fatalf("no error response on the wire: %q", last)
			}
			if resp.Error.Code != CodeFor(err) {
				t.Fatalf("wire code %d, CodeFor says %d", resp.Error.Code, CodeFor(err))
			}
		})
	}
}

// TestSessionHostileMatch sends patch messages whose match expression is
// past the spec language's caps: 100 000 '!' (over 64 KiB) and 300
// nested parentheses (over depth 200). Each must end the session as
// ErrBadSpec, -32004 on the wire, within a second, having selected
// nothing.
func TestSessionHostileMatch(t *testing.T) {
	binMsg := fmt.Sprintf(`{"method":"binary","params":{"data":%q}}`, base64.StdEncoding.EncodeToString(testBin(t)))
	for name, expr := range map[string]string{
		"size":  strings.Repeat("!", 100_000) + "jcc",
		"depth": strings.Repeat("(", 300) + "jcc" + strings.Repeat(")", 300),
	} {
		t.Run(name, func(t *testing.T) {
			patch, err := json.Marshal(map[string]any{"method": "patch", "params": map[string]string{"match": expr}})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			transcript, err := serveString(t, binMsg+"\n"+string(patch)+"\n")
			if took := time.Since(start); took > time.Second {
				t.Errorf("rejection took %v, want under a second", took)
			}
			if !errors.Is(err, e9err.ErrBadSpec) {
				t.Fatalf("want ErrBadSpec, got %v", err)
			}
			lines := strings.Split(strings.TrimSpace(transcript), "\n")
			var resp struct {
				Error *Error `json:"error"`
			}
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &resp); jerr != nil || resp.Error == nil || resp.Error.Code != CodeBadSpec {
				t.Fatalf("last line %q: want error code %d", lines[len(lines)-1], CodeBadSpec)
			}
		})
	}
}

// TestSessionRejectsParallelism: worker count is the serving process's
// decision, not the stream's, so an option message naming parallelism
// is an unknown field like any misspelling.
func TestSessionRejectsParallelism(t *testing.T) {
	_, err := serveString(t, `{"method":"option","params":{"parallelism":2}}`+"\n")
	if !errors.Is(err, e9err.ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
	if !strings.Contains(err.Error(), `unknown field "parallelism"`) {
		t.Fatalf("want the unknown-field error, got %v", err)
	}
}

// TestSessionOptions checks option plumbing end to end: b0Fallback and
// granularity reach the session's configuration, and the emitted bytes
// are the library's single-shot Rewrite under the same options.
func TestSessionOptions(t *testing.T) {
	bin := testBin(t)
	want, err := e9patch.Rewrite(bin, e9patch.Config{
		Select:      e9patch.SelectJumps,
		Granularity: 2,
		Patch:       patch.Options{B0Fallback: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := fmt.Sprintf(`{"method":"option","params":{"b0Fallback":true,"granularity":2}}
{"method":"binary","params":{"data":%q}}
{"method":"patch","params":{"match":"branch"},"id":1}
{"method":"emit","id":2}
`, base64.StdEncoding.EncodeToString(bin))
	s := NewSession()
	defer s.Close()
	d := NewDecoder(strings.NewReader(stream))
	ctx := context.Background()
	for {
		msg, err := d.Next()
		if err != nil {
			break
		}
		if _, err := s.Handle(ctx, msg); err != nil {
			t.Fatalf("%s: %v", msg.Method, err)
		}
	}
	if !s.cfg.Patch.B0Fallback || s.cfg.Granularity != 2 {
		t.Fatalf("options not applied: b0Fallback %v, granularity %d", s.cfg.Patch.B0Fallback, s.cfg.Granularity)
	}
	res := s.Result()
	if res == nil {
		t.Fatal("no result after emit")
	}
	if res.Stats.Patched() == 0 {
		t.Fatal("nothing patched")
	}
	if !bytes.Equal(want.Output, res.Output) {
		t.Fatal("session output under the options differs from single-shot Rewrite")
	}
}

// TestUint64Forms checks the number extension round trip.
func TestUint64Forms(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{`4245300`, 4245300, true},
		{`"0x40c734"`, 0x40c734, true},
		{`"0X40C734"`, 0x40c734, true},
		{`"0xffffffffffffffff"`, ^uint64(0), true},
		{`-1`, 0, false},
		{`1.5`, 0, false},
		{`"0x"`, 0, false},
		{`"zzz"`, 0, false},
		{`true`, 0, false},
		// The string form is strictly 0x-prefixed hex. The any-base
		// parser used before this was tightened silently accepted all of
		// these — most dangerously "0755", which decoded to 493, not 755:
		// an address aimed at the wrong location with no diagnostic.
		{`"18446744073709551615"`, 0, false}, // decimal string
		{`"0755"`, 0, false},                 // octal spelling
		{`"0b101"`, 0, false},                // binary spelling
		{`""`, 0, false},                     // empty
		{`"0x1_000"`, 0, false},              // digit-group underscores
		{`"0x10000000000000000"`, 0, false},  // 17 nibbles: > 64 bits
		{`"0x0000000000000000f"`, 0, false},  // >16 nibbles even when the value fits
		{`" 0x10"`, 0, false},                // leading junk
	} {
		var u Uint64
		err := json.Unmarshal([]byte(tc.in), &u)
		if tc.ok != (err == nil) {
			t.Errorf("%s: ok=%v, err=%v", tc.in, tc.ok, err)
			continue
		}
		if tc.ok && uint64(u) != tc.want {
			t.Errorf("%s: got %#x, want %#x", tc.in, uint64(u), tc.want)
		}
		// Rejected strings must carry the malformed classification so
		// they answer -32000 on the wire, not the internal-error code.
		if !tc.ok && strings.HasPrefix(tc.in, `"`) {
			if !errors.Is(err, e9err.ErrMalformed) || CodeFor(err) != CodeMalformed {
				t.Errorf("%s: err %v maps to code %d, want %d (malformed)", tc.in, err, CodeFor(err), CodeMalformed)
			}
		}
	}
	// Round trip through MarshalJSON keeps large values exact.
	big := Uint64(0xdead_beef_cafe_f00d)
	enc, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	var back Uint64
	if err := json.Unmarshal(enc, &back); err != nil || back != big {
		t.Fatalf("round trip %s -> %#x (err %v)", enc, uint64(back), err)
	}
}
