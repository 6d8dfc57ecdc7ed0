package main

import (
	"bytes"
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

// TestBackendPipeline builds the real e9patch binary and drives a
// rewrite through the frontend/backend process split, with the e9tool
// TestMain built:
//
//	e9tool -backend e9patch -M EXPR [-P empty|counter=ADDR] -o OUT INPUT
//
// The file the backend emits must be byte-identical to an in-process
// Rewrite with the same configuration — the pipe must not change a
// single output byte.
func TestBackendPipeline(t *testing.T) {
	dir := t.TempDir()
	e9patchBin := filepath.Join(dir, "e9patch")
	if out, err := exec.Command("go", "build", "-o", e9patchBin, "../e9patch").CombinedOutput(); err != nil {
		t.Fatalf("go build e9patch: %v\n%s", err, out)
	}

	saved := workload.KernelIters
	workload.KernelIters = 1500
	defer func() { workload.KernelIters = saved }()
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	inPath := filepath.Join(dir, "input.bin")
	if err := os.WriteFile(inPath, prog.ELF, 0o755); err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		args []string
		cfg  e9patch.Config
	}{
		"match": {
			args: []string{"-M", "jcc & short"},
		},
		"counter-b0": {
			args: []string{"-M", "heapwrite", "-P", "counter=0x404000",
				"-b0-fallback", "-granularity", "2"},
			cfg: e9patch.Config{
				Template:    trampoline.Counter{Addr: 0x404000},
				Granularity: 2,
				Patch:       patch.Options{B0Fallback: true},
			},
		},
	} {
		t.Run(name, func(t *testing.T) {
			outPath := filepath.Join(dir, name+".out")
			args := append([]string{"-backend", e9patchBin, "-o", outPath}, tc.args...)
			args = append(args, inPath)
			cmd := exec.Command(tool, args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("e9tool -backend: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), "backend:") {
				t.Fatalf("no backend summary on stdout: %s", stdout.String())
			}

			matchExpr := tc.args[1]
			sel, err := e9patch.SelectMatch(matchExpr)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Select = sel
			want, err := e9patch.Rewrite(prog.ELF, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Output) {
				t.Fatalf("backend pipeline output (%d bytes) differs from in-process rewrite (%d bytes)",
					len(got), len(want.Output))
			}
		})
	}

	// A patch the protocol cannot carry must be a usage error naming -P,
	// not a silent in-process fallback.
	cmd := exec.Command(tool, "-backend", e9patchBin, "-M", "jcc", "-P", "lowfat", "-o", filepath.Join(dir, "x"), inPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("expected usage error for -backend with -P lowfat, got %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-P empty or counter=ADDR") {
		t.Fatalf("usage error does not explain the restriction:\n%s", stderr.String())
	}
}
