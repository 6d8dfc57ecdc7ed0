package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"e9patch"
	"e9patch/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/dump_golden.txt")

// build compiles e9dump into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "e9dump")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build e9dump: %v\n%s", err, out)
	}
	return bin
}

// TestDumpGolden pins e9dump's whole stdout over one small generated
// CET binary: the linear listing, the superset and CET-anchored
// recovery statistics with their occupancy summaries, and the
// appended-blob lines of the binary's A1 rewrite. Every number is a
// deterministic function of the generator, the recovery and the
// patcher. Re-record, only for an intentional change, with:
//
//	go test ./cmd/e9dump/ -run TestDumpGolden -update
func TestDumpGolden(t *testing.T) {
	p, err := workload.ProfileByName("nginx-cet")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.BuildStatic(p, 4e3/(p.SizeMB*1e6))
	if err != nil {
		t.Fatal(err)
	}
	rw, err := e9patch.Rewrite(prog.ELF, e9patch.Config{Select: e9patch.SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "nginx-cet"), filepath.Join(dir, "nginx-cet.a1")
	if err := os.WriteFile(in, prog.ELF, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, rw.Output, 0o644); err != nil {
		t.Fatal(err)
	}

	dump := build(t)
	var got bytes.Buffer
	for _, c := range []struct {
		name string
		args []string
	}{
		{"nginx-cet", []string{"-disasm", "linear", "-n", "8", in}},
		{"nginx-cet", []string{"-disasm", "superset", "-occupancy", in}},
		{"nginx-cet", []string{"-disasm", "superset-cet", "-occupancy", in}},
		{"nginx-cet.a1", []string{out}},
	} {
		stdout, err := exec.Command(dump, c.args...).Output()
		if err != nil {
			t.Fatalf("e9dump %v: %v", c.args, err)
		}
		fmt.Fprintf(&got, "$ e9dump %s\n", strings.Join(append(c.args[:len(c.args)-1:len(c.args)-1], c.name), " "))
		got.Write(stdout)
	}

	golden := filepath.Join("testdata", "dump_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(g), len(w)); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, gl, wl)
			}
		}
	}
}

// TestDumpPlanGolden runs the built e9dump over the committed binary
// plan: -plan must print exactly the committed JSON rendering of the
// same plan (TestPlanGoldenJSON in the root package keeps the two files
// in step), and handed that JSON, which is what a version 1 plan file
// looked like, it must say to re-emit the plan.
func TestDumpPlanGolden(t *testing.T) {
	dump := build(t)
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
