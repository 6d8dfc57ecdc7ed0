package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/table1_golden.txt")

// build compiles e9bench into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "e9bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build e9bench: %v\n%s", err, out)
	}
	return bin
}

// TestTable1Golden pins the whole output of `e9bench -table1 -scale
// 0.05`: every row's coverage, Time% and Size%. The table is a
// deterministic function of the synthetic profiles, the patcher and the
// cycle model, so a change that moves any paper number fails here and
// shows which. Re-record, only for an intentional change, with:
//
//	go test ./cmd/e9bench/ -run TestTable1Golden -update
func TestTable1Golden(t *testing.T) {
	out, err := exec.Command(build(t), "-table1", "-scale", "0.05").Output()
	if err != nil {
		t.Fatalf("e9bench -table1: %v", err)
	}
	golden := filepath.Join("testdata", "table1_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		got, exp := strings.Split(string(out), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(got), len(exp)); i++ {
			var g, e string
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				e = exp[i]
			}
			if g != e {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, g, e)
			}
		}
	}
}

// TestCommandLine drives the built e9bench at its flag surface: two
// cheap paper artefacts run and print their sections, no mode flag is a
// usage error, and the performance modes that moved to `go run ./bench`
// and the engine switch (the figures are engine-invariant) are unknown
// flags rather than silent no-ops.
func TestCommandLine(t *testing.T) {
	bin := build(t)
	for _, tc := range []struct {
		args   []string
		exit   int
		stdout []string // substrings of standard output
		stderr string   // substring of standard error
	}{
		{[]string{"-motivation", "-ablation-b0"}, 0, []string{"== Motivation (§1)", "== Ablation: B0 int3/SIGTRAP"}, ""},
		{nil, 2, nil, "Usage of"},
		{[]string{"-engine", "nosuch", "-motivation"}, 2, nil, "flag provided but not defined: -engine"},
		{[]string{"-engine", "tbc", "-motivation"}, 2, nil, "flag provided but not defined: -engine"},
		{[]string{"-enginespeed"}, 2, nil, "flag provided but not defined: -enginespeed"},
		{[]string{"-parallelism=2"}, 2, nil, "flag provided but not defined: -parallelism"},
		{[]string{"-plancache"}, 2, nil, "flag provided but not defined: -plancache"},
		{[]string{"-matchlang"}, 2, nil, "flag provided but not defined: -matchlang"},
		{[]string{"-disasm"}, 2, nil, "flag provided but not defined: -disasm"},
		{[]string{"-cluster"}, 2, nil, "flag provided but not defined: -cluster"},
		{[]string{"-json", "x"}, 2, nil, "flag provided but not defined: -json"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
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
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("standard output lacks %q:\n%s", want, stdout.String())
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("standard error lacks %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}
