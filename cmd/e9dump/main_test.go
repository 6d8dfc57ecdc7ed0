package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDumpPlanGolden runs the built e9dump over the committed binary
// plan: -plan must print exactly the committed JSON rendering of the
// same plan (TestPlanGoldenJSON in the root package keeps the two files
// in step), and handed that JSON, which is what a version 1 plan file
// looked like, it must say to re-emit the plan.
func TestDumpPlanGolden(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "e9dump")
	if out, err := exec.Command("go", "build", "-o", dump, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build e9dump: %v\n%s", err, out)
	}
	testdata := filepath.Join("..", "..", "testdata")
	want, err := os.ReadFile(filepath.Join(testdata, "plan_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command(dump, "-plan", filepath.Join(testdata, "plan_golden.e9plan")).Output()
	if err != nil {
		t.Fatalf("e9dump -plan: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("e9dump -plan printed\n%s\nwant testdata/plan_golden.json:\n%s", got, want)
	}

	cmd := exec.Command(dump, "-plan", filepath.Join(testdata, "plan_golden.json"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil || !strings.Contains(stderr.String(), "re-emit the plan") {
		t.Errorf("e9dump -plan on a JSON plan: err %v, stderr %q; want a failure saying to re-emit the plan", err, stderr.String())
	}
}
