package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"e9patch/internal/workload"
)

// launcherEnv marks the test binary re-executed as peakRSS's launcher.
const launcherEnv = "E9TOOL_TEST_RSS_LAUNCHER"

// peakRSS runs tool with args and returns its peak RSS in KiB. Linux
// folds the starting process's peak RSS into a child's ru_maxrss at
// exec, so a run started from this test process, which has held the
// whole input, could never report less than that. The tool is started
// instead by a launcher, this test binary re-executed, whose own peak is
// a few MiB.
func peakRSS(t *testing.T, tool string, args ...string) int64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestOutputPeakRSS$", "--", tool}, args...)...)
	cmd.Env = append(os.Environ(), launcherEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(tool), args, err, out)
	}
	kib, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		t.Fatalf("the launcher printed %q", out)
	}
	return kib
}

// launch is the launcher: it runs the command its arguments name and
// prints the command's ru_maxrss, or its failure, and exits.
func launch() {
	cmd := exec.Command(flag.Arg(0), flag.Args()[1:]...)
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Printf("%v\n%s", err, out)
		os.Exit(1)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		fmt.Println("no rusage")
		os.Exit(1)
	}
	fmt.Println(ru.Maxrss)
	os.Exit(0)
}

// TestOutputPeakRSS gates e9tool's peak resident set on a 64 MB input
// whose text is 1 MB. The rewrite neither builds the output in memory
// nor pages the unchanged input bytes through the process (they are
// copied file to file), so it stays under 32 MiB, half the input.
// -apply-plan streams its output the same way, but checking the plan's
// binding hashes the whole input through the mapping, so it may add the
// input's size to that and no more: building the output as well would
// add it twice. The two outputs must be identical.
func TestOutputPeakRSS(t *testing.T) {
	if os.Getenv(launcherEnv) != "" {
		launch()
	}
	dir := t.TempDir()
	tool := filepath.Join(dir, "e9tool")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build e9tool: %v\n%s", err, out)
	}
	in := filepath.Join(dir, "in.bin")
	prog, err := workload.BuildStream(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, prog.ELF, 0o644); err != nil {
		t.Fatal(err)
	}
	skip := strconv.FormatUint(workload.StreamSkipPrefix(1), 10)
	plan := filepath.Join(dir, "plan.e9plan")
	if out, err := exec.Command(tool, "-M", "jump", "-skip", skip, "-emit-plan", plan, in).CombinedOutput(); err != nil {
		t.Fatalf("-emit-plan: %v\n%s", err, out)
	}

	const limitMiB = 32
	inMiB := len(prog.ELF) >> 20
	prog = nil
	var sums [][sha256.Size]byte
	for _, tc := range []struct {
		name  string
		args  []string
		limit int // MiB
	}{
		{"rewrite", []string{"-M", "jump", "-skip", skip}, limitMiB},
		{"apply-plan", []string{"-apply-plan", plan}, limitMiB + inMiB},
	} {
		out := filepath.Join(dir, tc.name+".out")
		if mib := float64(peakRSS(t, tool, append(tc.args, "-o", out, in)...)) / 1024; mib >= float64(tc.limit) {
			t.Errorf("%s: peak RSS %.1f MiB, want under %d MiB", tc.name, mib, tc.limit)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, [sha256.Size]byte(h.Sum(nil)))
	}
	if sums[0] != sums[1] {
		t.Error("-apply-plan's output differs from the rewrite's")
	}
}
