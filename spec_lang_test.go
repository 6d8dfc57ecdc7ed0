package e9patch

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"e9patch/internal/lang"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestSpecGoldenCorpus parses every spec under testdata/specs/ and
// compares its e9dump rendering (typed AST + shardability) against the
// committed golden file. Refresh with `go test -run SpecGolden -update`.
func TestSpecGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "specs", "*.e9spec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("corpus has %d specs, expected at least 6", len(files))
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".e9spec")
		t.Run(name, func(t *testing.T) {
			text, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := lang.ParseSpec(string(text))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			dump := sp.Dump()
			golden := strings.TrimSuffix(file, ".e9spec") + ".golden"
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(dump), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if dump != string(want) {
				t.Errorf("dump drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, dump, want)
			}
		})
	}
}

// TestRecipeFilesInSync asserts the shipped examples/specs/ files carry
// exactly the canonical recipe text compiled into the workload package.
func TestRecipeFilesInSync(t *testing.T) {
	for _, rec := range workload.Recipes() {
		raw, err := os.ReadFile(rec.File)
		if err != nil {
			t.Errorf("recipe %s: %v", rec.Name, err)
			continue
		}
		if string(raw) != rec.Spec {
			t.Errorf("recipe %s: %s drifted from the canonical spec text in internal/workload", rec.Name, rec.File)
		}
		if _, err := lang.ParseSpec(rec.Spec); err != nil {
			t.Errorf("recipe %s does not parse: %v", rec.Name, err)
		}
	}
}

// TestSpecSelectorEquivalence is the acceptance gate for the compiled
// selectors: the spec-language A1/A2 recipes must reproduce the
// hardcoded SelectJumps/SelectHeapWrites rewrites byte-identically,
// with identical serialized plans, at every parallelism level.
func TestSpecSelectorEquivalence(t *testing.T) {
	selCases := []struct {
		name, expr string
		sel        func([]x86.Loc) []int
	}{
		{"a1_jumps", "branch", SelectJumps},
		{"a2_heapwrites", "heapwrite", SelectHeapWrites},
	}
	kernels := []struct {
		arch string
		pie  bool
	}{
		{"branchy", false},
		{"memstream", false},
		{"branchy", true},
	}
	for _, c := range selCases {
		sp, err := lang.FromParts(c.expr, "")
		if err != nil {
			t.Fatal(err)
		}
		br, err := sp.Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kernels {
			prog, err := workload.BuildKernel(k.arch, k.pie)
			if err != nil {
				t.Fatal(err)
			}
			refPlan, err := Plan(prog.ELF, Config{Select: c.sel, ReserveVA: workload.ReserveVA()})
			if err != nil {
				t.Fatal(err)
			}
			refEnc, err := refPlan.Encode()
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := Apply(prog.ELF, refPlan)
			if err != nil {
				t.Fatal(err)
			}
			if refRes.Stats.Total == 0 {
				t.Fatalf("%s/%s: reference selector matched nothing", c.name, k.arch)
			}
			for _, par := range []int{1, 2, 8} {
				cfg := Config{
					Select:      br.Select,
					Template:    br.Template,
					Parallelism: par,
					ReserveVA:   workload.ReserveVA(),
				}
				p, err := Plan(prog.ELF, cfg)
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", c.name, k.arch, par, err)
				}
				enc, err := p.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc, refEnc) {
					t.Errorf("%s/%s pie=%t P=%d: plan differs from hardcoded selector's",
						c.name, k.arch, k.pie, par)
					continue
				}
				res, err := Apply(prog.ELF, p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(res.Output, refRes.Output) {
					t.Errorf("%s/%s pie=%t P=%d: output differs from hardcoded selector's",
						c.name, k.arch, k.pie, par)
				}
			}
		}
	}
}
