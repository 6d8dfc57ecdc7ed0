package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"e9patch"
	"e9patch/internal/patch"
	"e9patch/internal/trampoline"
	"e9patch/internal/workload"
)

// buildE9Patch compiles the real e9patch binary once per test binary.
func buildE9Patch(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "e9patch")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func testProg(t *testing.T) []byte {
	t.Helper()
	saved := workload.KernelIters
	workload.KernelIters = 1500
	defer func() { workload.KernelIters = saved }()
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	return prog.ELF
}

// TestRPCGolden is the rpccheck gate: each golden transcript under
// testdata/rpc/ is replayed against the built e9patch binary in backend
// mode, and the emitted file must hash-identical to the library-path
// rewrite with the equivalent configuration. This pins the wire
// protocol to the in-process API: a protocol change that shifts any
// output byte fails here.
func TestRPCGolden(t *testing.T) {
	bin := buildE9Patch(t)
	elf := testProg(t)

	// The library-equivalent configuration for every transcript; adding
	// a transcript without its twin here is an error.
	jccOrCall, err := e9patch.SelectMatch("jcc | call")
	if err != nil {
		t.Fatal(err)
	}
	equivalent := map[string]e9patch.Config{
		"a1_jumps.rpc": {Select: e9patch.SelectJumps},
		"a2_heapwrites_b0.rpc": {
			Select:      e9patch.SelectHeapWrites,
			Granularity: 2,
			Patch:       patch.Options{B0Fallback: true},
		},
		"match_union_reserve.rpc": {
			Select:    jccOrCall,
			Template:  trampoline.Counter{Addr: 0x404000},
			ReserveVA: [][2]uint64{{0x700000000000, 0x700000010000}},
		},
	}

	transcripts, err := filepath.Glob(filepath.Join("..", "..", "testdata", "rpc", "*.rpc"))
	if err != nil || len(transcripts) == 0 {
		t.Fatalf("no golden transcripts found: %v", err)
	}

	dir := t.TempDir()
	inPath := filepath.Join(dir, "input.bin")
	if err := os.WriteFile(inPath, elf, 0o755); err != nil {
		t.Fatal(err)
	}

	for _, path := range transcripts {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			cfg, ok := equivalent[name]
			if !ok {
				t.Fatalf("transcript %s has no library-equivalent config in this test", name)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			outPath := filepath.Join(dir, name+".out")
			session := strings.NewReplacer("@INPUT@", inPath, "@OUTPUT@", outPath).Replace(string(raw))

			cmd := exec.Command(bin)
			cmd.Stdin = strings.NewReader(session)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("backend session failed: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
			}
			for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
				var resp struct {
					Error json.RawMessage `json:"error"`
				}
				if err := json.Unmarshal([]byte(line), &resp); err != nil {
					t.Fatalf("unparseable response line %q: %v", line, err)
				}
				if len(resp.Error) > 0 {
					t.Fatalf("error response in transcript: %s", line)
				}
			}

			got, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatalf("backend wrote no output: %v", err)
			}
			want, err := e9patch.Rewrite(elf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(got) != sha256.Sum256(want.Output) {
				t.Fatalf("backend output (%d bytes) differs from library rewrite (%d bytes)",
					len(got), len(want.Output))
			}
		})
	}
}

// TestUsageOnTerminalStdin checks the no-silent-exit fix: with no
// arguments and stdin on the null device (a char device, like a
// terminal), e9patch must print usage and exit 2 rather than waiting on
// a stream that will never come.
func TestUsageOnTerminalStdin(t *testing.T) {
	bin := buildE9Patch(t)
	cmd := exec.Command(bin)
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	cmd.Stdin = devnull
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("expected exit 2, got %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "usage:") || !strings.Contains(stderr.String(), "backend") {
		t.Fatalf("stderr does not explain both modes:\n%s", stderr.String())
	}
}

// TestBackendReportsStreamErrors checks the hostile-stream contract at
// the process level: a broken session ends with a JSON error object on
// stdout and a non-zero exit, never a hang, a panic or a fatal
// allocation. A binary message declaring a terabyte-sized raw payload
// is an unknown field, not a terabyte allocation.
func TestBackendReportsStreamErrors(t *testing.T) {
	bin := buildE9Patch(t)
	for name, stream := range map[string]string{
		"empty":        "",
		"patch-first":  `{"method":"patch","params":{"match":"branch"},"id":1}` + "\n",
		"not-json":     "hello\n",
		"no-emit":      `{"method":"option","params":{"granularity":2},"id":1}` + "\n",
		"bad-filename": `{"method":"binary","params":{"filename":"/nonexistent/x"},"id":1}` + "\n",
		"size-framed":  `{"method":"binary","params":{"size":1099511627776},"id":1}` + "\nabc",
	} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(bin)
			cmd.Stdin = strings.NewReader(stream)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Fatalf("expected exit 1, got %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), `"error"`) {
				t.Fatalf("no wire error object on stdout: %s", stdout.String())
			}
		})
	}
}

// TestNoFrontendFlags: e9patch is the backend and nothing else. The
// one-shot rewriter (-app) and the session flags are gone — selection
// belongs to a frontend and settings to the option message — so any
// argument, even with a stream on stdin, exits 2 with usage and writes
// nothing.
func TestNoFrontendFlags(t *testing.T) {
	bin := buildE9Patch(t)
	dir := t.TempDir()
	inPath := filepath.Join(dir, "input.bin")
	if err := os.WriteFile(inPath, testProg(t), 0o755); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.bin")
	for name, args := range map[string][]string{
		"app":     {"-app", "jumps", "-o", outPath, inPath},
		"backend": {"-backend"},
	} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(bin, args...)
			cmd.Stdin = strings.NewReader(`{"method":"emit"}` + "\n")
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("expected exit 2, got %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), "usage:") {
				t.Fatalf("no usage on stderr:\n%s", stderr.String())
			}
			if _, err := os.Stat(outPath); !os.IsNotExist(err) {
				t.Fatalf("%s was written (stat: %v)", outPath, err)
			}
		})
	}
}
