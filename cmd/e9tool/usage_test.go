package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"e9patch/internal/workload"
)

// TestDroppedFlagsAreUsageErrors runs the built e9tool with flag
// combinations in which one flag would never be read: each must be a
// usage error (exit 2) naming the flag, and the invocations the
// benchmark and the README rely on must keep exiting 0.
func TestDroppedFlagsAreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	saved := workload.KernelIters
	workload.KernelIters = 1500
	defer func() { workload.KernelIters = saved }()
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "input.bin")
	if err := os.WriteFile(in, prog.ELF, 0o755); err != nil {
		t.Fatal(err)
	}
	// A call patch's template injects an asm string table beside the
	// payload the spec names (trace.elf, resolved from the run's
	// directory); -verify must know both images.
	calls, err := workload.BuildKernel("callheavy", true)
	if err != nil {
		t.Fatal(err)
	}
	callIn := filepath.Join(dir, "callheavy.bin")
	if err := os.WriteFile(callIn, calls.ELF, 0o755); err != nil {
		t.Fatal(err)
	}
	trace, err := workload.BuildTracePayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.elf"), trace, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.bin")
	plan := filepath.Join(dir, "plan.e9plan")
	plan2 := filepath.Join(dir, "plan2.e9plan")

	// Order matters: the plan the -apply-plan rows replay is emitted first.
	for _, tc := range []struct {
		name   string
		args   []string
		exit   int
		stderr string // substring of the diagnostic, for exit 2
	}{
		{"cli-120mb op", []string{"-M", "jump", "-skip", "64", "-o", out}, 0, ""},
		{"M with P", []string{"-M", "jcc", "-P", "counter=0x700000", "-o", out}, 0, ""},
		{"M heapwrite with P lowfat", []string{"-M", "heapwrite", "-P", "lowfat", "-o", out}, 0, ""},
		{"emit-plan", []string{"-M", "jcc", "-granularity", "2", "-emit-plan", plan}, 0, ""},
		{"apply-plan", []string{"-apply-plan", plan, "-o", out}, 0, ""},
		// -o acts wherever it is given, or is refused.
		{"emit-plan with o", []string{"-M", "jcc", "-emit-plan", plan2, "-o", out}, 0, ""},
		{"dry-run with o", []string{"-M", "jcc", "-dry-run", "-o", out}, 2, "-dry-run"},

		// -verify checks what was written, and needs something written.
		{"verify", []string{"-M", "jump", "-skip", "64", "-P", "counter=0x700000", "-verify", "-o", out}, 0, ""},
		{"verify superset", []string{"-M", "true", "-disasm", "superset", "-b0-fallback", "-verify", "-o", out}, 0, ""},
		{"verify apply-plan", []string{"-apply-plan", plan, "-verify", "-o", out}, 0, ""},
		{"verify call patch", []string{"-M", "call & indirect", "-P", "call trace(asm)@trace.elf", "-verify", "-o", out}, 0, ""},
		{"verify with dry-run", []string{"-M", "jcc", "-verify", "-dry-run"}, 2, "-verify"},
		{"verify with emit-plan", []string{"-M", "jcc", "-verify", "-emit-plan", plan}, 2, "-verify"},
		{"verify with emit-plan and o", []string{"-M", "jcc", "-verify", "-emit-plan", plan2, "-o", out}, 0, ""},

		// -match and -action are gone: -M and -P are the one spelling.
		{"match is an unknown flag", []string{"-match", "jcc", "-o", out}, 2, "-match"},
		{"M with action", []string{"-M", "jcc", "-action", "counter=0x700000", "-o", out}, 2, "-action"},
		{"M with unknown action", []string{"-M", "jcc", "-action", "bogus", "-o", out}, 2, "-action"},
		{"P with action", []string{"-M", "jcc", "-P", "empty", "-action", "lowfat", "-o", out}, 2, "-action"},
		// -coverage=full is gone: -M true selects every instruction.
		{"M true", []string{"-M", "true", "-disasm", "superset", "-o", out}, 0, ""},
		{"coverage is an unknown flag", []string{"-coverage", "full", "-o", out}, 2, "-coverage"},
		{"backend with P lowfat", []string{"-backend", "e9patch", "-M", "heapwrite", "-P", "lowfat", "-o", out}, 2, "-P"},
		{"backend with spec", []string{"-backend", "e9patch", "-spec", "x.e9spec", "-o", out}, 2, "-spec"},
		{"apply-plan with M", []string{"-apply-plan", plan, "-M", "jcc", "-o", out}, 2, "-M "},
		{"apply-plan with P", []string{"-apply-plan", plan, "-P", "empty", "-o", out}, 2, "-P "},
		{"apply-plan with spec", []string{"-apply-plan", plan, "-spec", "x.e9spec", "-o", out}, 2, "-spec "},
		{"apply-plan with match", []string{"-apply-plan", plan, "-match", "jcc", "-o", out}, 2, "-match"},
		{"apply-plan with action", []string{"-apply-plan", plan, "-action", "lowfat", "-o", out}, 2, "-action"},
		{"apply-plan with disasm", []string{"-apply-plan", plan, "-disasm", "superset", "-o", out}, 2, "-disasm "},
		{"apply-plan with skip", []string{"-apply-plan", plan, "-skip", "64", "-o", out}, 2, "-skip "},
		{"apply-plan with granularity", []string{"-apply-plan", plan, "-granularity", "2", "-o", out}, 2, "-granularity "},
		{"apply-plan with b0-fallback", []string{"-apply-plan", plan, "-b0-fallback", "-o", out}, 2, "-b0-fallback "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			input := in
			if tc.name == "verify call patch" {
				input = callIn
			}
			cmd := exec.Command(tool, append(tc.args, input)...)
			cmd.Dir = dir
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			exit := 0
			if err := cmd.Run(); err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatal(err)
				}
				exit = ee.ExitCode()
			}
			if exit != tc.exit {
				t.Fatalf("exit %d, want %d\nstderr: %s", exit, tc.exit, stderr.String())
			}
			if first, _, _ := strings.Cut(stderr.String(), "\n"); !strings.Contains(first, tc.stderr) {
				t.Fatalf("diagnostic does not name %q: %s", tc.stderr, first)
			}
		})
	}
}
