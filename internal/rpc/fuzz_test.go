package rpc

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"strings"
	"testing"

	"e9patch"
)

// FuzzRPCSession throws arbitrary byte streams at a full protocol
// session. The invariant is the backend contract: any stream either
// completes or returns a classified error — never a panic, never an
// unbounded allocation. Seeds cover the golden grammar (inline data,
// options, reserves, explicit addresses) plus each abuse shape so the
// mutator starts near the interesting surface.
func FuzzRPCSession(f *testing.F) {
	bin := testBin(f)
	b64 := base64.StdEncoding.EncodeToString(bin)

	f.Add([]byte(fmt.Sprintf(`{"jsonrpc":"2.0","method":"binary","params":{"data":%q},"id":1}
{"jsonrpc":"2.0","method":"patch","params":{"match":"branch"},"id":2}
{"jsonrpc":"2.0","method":"emit","id":3}
`, b64)))
	f.Add([]byte(fmt.Sprintf(`{"method":"option","params":{"b0Fallback":true}}
{"method":"reserve","params":{"ranges":[{"lo":"0x700000000000","hi":"0x700000001000"}]}}
{"method":"binary","params":{"data":%q}}
{"method":"patch","params":{"addrs":["0x401005",4198406]},"id":1}
{"method":"emit","id":2}
`, b64)))
	f.Add([]byte(`{"method":"patch","params":{"match":"branch"}}`))
	f.Add([]byte(`{"method":"emit"}` + "\n" + `{"method":"emit"}`))
	f.Add([]byte(`{"method":"binary","params":{"data":"aGVsbG8="}}`))
	f.Add([]byte(`{"method":"binary","params":{"size":1099511627776}}` + "\nabc"))
	f.Add([]byte(`{"method":"binary","params":{"filename":"/etc/passwd"}}`))
	f.Add([]byte(`{"method":"option","params":{"granularity":-1}}`))
	f.Add([]byte("\n\n\n{\"method\":"))
	// Number-string shapes the strict hex parser must classify as
	// malformed: 0x-less decimal/octal, empty, and >16-nibble strings.
	f.Add([]byte(`{"method":"option","params":{"skipPrefix":"123"}}`))
	f.Add([]byte(`{"method":"option","params":{"skipPrefix":"0755"}}`))
	f.Add([]byte(`{"method":"option","params":{"skipPrefix":""}}`))
	f.Add([]byte(`{"method":"option","params":{"skipPrefix":"0x10000000000000000"}}`))
	f.Add([]byte(`{"method":"option","params":{"counter":"0x1_000"}}`))
	f.Add([]byte(`{"method":"reserve","params":{"ranges":[["0x0000000000000000f","0x700000010000"]]}}`))

	f.Fuzz(func(t *testing.T, stream []byte) {
		// An emit may name a file to write, and the fuzzer must write
		// none. JSON field names match case-insensitively and may be
		// escaped.
		if bytes.Contains(bytes.ToLower(stream), []byte("output")) || bytes.Contains(stream, []byte(`\u`)) {
			t.Skip()
		}
		err := Serve(context.Background(), bytes.NewReader(stream), io.Discard)
		if err == nil {
			return
		}
		// Whatever the stream was, the failure must be classified and
		// must carry a non-internal JSON-RPC code unless it really was a
		// contained panic (which the recovery boundary marks).
		code := CodeFor(err)
		if code == CodeInternal {
			if !strings.Contains(err.Error(), "recovered panic") {
				t.Fatalf("unclassified failure: %v", err)
			}
			t.Fatalf("panic escaped into the error path: %v", err)
		}
	})
}

// TestFuzzSeedsPass replays the seed corpus directly so `go test`
// exercises the fuzz invariant without -fuzz.
func TestFuzzSeedsPass(t *testing.T) {
	bin := testBin(t)
	stream := fmt.Sprintf(`{"method":"binary","params":{"data":%q}}
{"method":"patch","params":{"match":"heapwrite"}}
{"method":"emit","id":9}
`, base64.StdEncoding.EncodeToString(bin))
	transcript, err := serveString(t, stream)
	if err != nil {
		t.Fatalf("%v\n%s", err, transcript)
	}
	want, err := e9patch.Rewrite(bin, e9patch.Config{Select: e9patch.SelectHeapWrites})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(transcript, fmt.Sprintf(`"outputSize":%d`, want.OutputSize)) {
		t.Fatalf("emit response does not report the expected output size %d: %s", want.OutputSize, transcript)
	}
}
