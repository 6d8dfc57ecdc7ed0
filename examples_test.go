package e9patch

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun builds the self-checking examples and runs each, which
// must exit 0: hardening asserts exactly two redzone violations (an
// epilogue that copied a patched store would miss one), patching runs a
// RawTemplate patch, quickstart and tracing compare against the original
// run. examples/specs/gen is left out: it writes files.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the examples")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool: %v", err)
	}
	examples := []string{"hardening", "patching", "quickstart", "tracing"}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, e := range examples {
		args = append(args, "./examples/"+e)
	}
	if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, e := range examples {
		if out, err := exec.Command(filepath.Join(dir, e)).CombinedOutput(); err != nil {
			t.Errorf("examples/%s: %v\n%s", e, err, out)
		}
	}
}
