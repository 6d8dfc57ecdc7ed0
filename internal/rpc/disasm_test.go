package rpc

import (
	"context"
	"encoding/base64"
	"fmt"
	"strings"
	"testing"
)

// TestSessionDisasmOption wires the disasm option through a full
// protocol session and checks the result reports the mode; a bad mode
// fails the option message itself.
func TestSessionDisasmOption(t *testing.T) {
	bin := testBin(t)
	stream := fmt.Sprintf(`{"method":"option","params":{"disasm":"superset-cet"}}
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
	res := s.Result()
	if res == nil {
		t.Fatal("no result after emit")
	}
	if res.Disasm != "superset-cet" {
		t.Fatalf("Result.Disasm = %q", res.Disasm)
	}
	if res.Recovery == nil || res.Recovery.Kept == 0 {
		t.Fatalf("no recovery stats: %+v", res.Recovery)
	}

	// An unknown mode is rejected at the option message.
	s2 := NewSession()
	defer s2.Close()
	d2 := NewDecoder(strings.NewReader(`{"method":"option","params":{"disasm":"bogus"},"id":1}` + "\n"))
	msg, err := d2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Handle(ctx, msg); err == nil {
		t.Fatal("bogus disasm mode accepted")
	}
}
