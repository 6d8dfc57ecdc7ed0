package rpc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"e9patch"
)

// TestSessionFilenameInputReleasesDescriptors: a session that opens its
// input by filename and emits to a path writes the single-shot Rewrite's
// bytes, copying the unchanged input bytes from the input file, and
// leaves this process's descriptor count where it found it.
func TestSessionFilenameInputReleasesDescriptors(t *testing.T) {
	bin := testBin(t)
	want, err := e9patch.Rewrite(bin, e9patch.Config{Select: e9patch.SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
	if err := os.WriteFile(in, bin, 0o644); err != nil {
		t.Fatal(err)
	}
	stream := fmt.Sprintf(`{"method":"binary","params":{"filename":%q},"id":1}
{"method":"patch","params":{"match":"branch"},"id":2}
{"method":"emit","params":{"output":%q},"id":3}
`, in, out)
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip(err)
		}
		return len(ents)
	}
	if transcript, err := serveString(t, stream); err != nil { // warm up the runtime's own descriptors
		t.Fatalf("serve: %v\n%s", err, transcript)
	}
	base := fds()
	for i := 0; i < 3; i++ {
		if transcript, err := serveString(t, stream); err != nil {
			t.Fatalf("serve: %v\n%s", err, transcript)
		}
	}
	if n := fds(); n != base {
		t.Errorf("%d descriptors open after three sessions, want %d", n, base)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want.Output) {
		t.Errorf("the session's output (%d bytes, %v) differs from single-shot Rewrite", len(got), err)
	}
}
