package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"e9patch"
	"e9patch/internal/workload"
)

// TestStreamedOutput runs the built e9tool on its rewrite and
// -apply-plan paths, to a fresh output and over the input file itself.
// The rewrite path writes from the mapped input while it runs, so -o
// naming the input is the case that would fault if the output were
// opened in place. Every file must hold exactly the library's
// Rewrite(...).Output, be executable, and be alone in its directory
// with the files the test put there: no temporary file survives.
func TestStreamedOutput(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(dir, "e9tool")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build e9tool: %v\n%s", err, out)
	}
	saved := workload.KernelIters
	workload.KernelIters = 1500
	defer func() { workload.KernelIters = saved }()
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := e9patch.SelectMatch("jump")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e9patch.Rewrite(prog.ELF, e9patch.Config{Select: sel})
	if err != nil {
		t.Fatal(err)
	}

	work := filepath.Join(dir, "work")
	if err := os.Mkdir(work, 0o755); err != nil {
		t.Fatal(err)
	}
	// input puts a fresh, non-executable copy of the input at name.
	input := func(name string) string {
		path := filepath.Join(work, name)
		if err := os.WriteFile(path, prog.ELF, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := func(args ...string) (string, error) {
		cmd := exec.Command(tool, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		return stderr.String(), err
	}
	plan := filepath.Join(dir, "plan.e9plan")
	if stderr, err := run("-M", "jump", "-emit-plan", plan, input("in")); err != nil {
		t.Fatalf("-emit-plan: %v\n%s", err, stderr)
	}
	// The file between the two is the binary serialization; a JSON plan
	// of the old schema is refused with the way out, before any output.
	if data, err := os.ReadFile(plan); err != nil || !bytes.HasPrefix(data, []byte("E9PL")) {
		t.Fatalf("-emit-plan did not write a binary plan (%v, %.8q)", err, data)
	}
	v1 := filepath.Join(dir, "v1.json")
	if err := os.WriteFile(v1, []byte("{\n  \"version\": 1,\n  \"sites\": []\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if stderr, err := run("-apply-plan", v1, "-o", filepath.Join(work, "never"), input("in")); err == nil || !strings.Contains(stderr, "re-emit the plan") {
		t.Errorf("-apply-plan on a version 1 plan: %v, stderr %q; want a failure saying to re-emit the plan", err, stderr)
	}

	for _, tc := range []struct {
		name string
		args []string // before -o OUT IN
		out  string   // "" names the input
	}{
		{"rewrite", []string{"-M", "jump"}, "out"},
		{"rewrite over the input", []string{"-M", "jump"}, ""},
		{"apply-plan", []string{"-apply-plan", plan}, "out2"},
		{"apply-plan over the input", []string{"-apply-plan", plan}, ""},
	} {
		in := input("in")
		out := in
		if tc.out != "" {
			out = filepath.Join(work, tc.out)
		}
		if stderr, err := run(append(tc.args, "-o", out, in)...); err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, stderr)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Output) {
			t.Errorf("%s: the file (%d bytes) differs from Rewrite's output (%d bytes)", tc.name, len(got), len(want.Output))
		}
		if st, err := os.Stat(out); err != nil || st.Mode().Perm()&0o100 == 0 {
			t.Errorf("%s: output mode %v, %v: want executable", tc.name, st.Mode(), err)
		}
	}

	// A write that fails: e9tool exits 1 and leaves neither a partial
	// output nor a temporary file. /dev/full refuses every byte; a missing
	// directory refuses the temporary file itself.
	in := input("in")
	failing := []string{filepath.Join(work, "missing", "out")}
	if _, err := os.Stat("/dev/full"); err == nil {
		failing = append(failing, "/dev/full")
	}
	for _, out := range failing {
		stderr, err := run("-M", "jump", "-o", out, in)
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("-o %s: %v, want exit status 1\n%s", out, err, stderr)
		}
		if !strings.Contains(stderr, "output not written") {
			t.Errorf("-o %s: stderr does not name the failure: %s", out, stderr)
		}
	}
	ents, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "in out out2" {
		t.Errorf("the output directory holds %v, want in, out and out2 only", names)
	}
}
