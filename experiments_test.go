package e9patch

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestExperimentsQuoteGolden keeps EXPERIMENTS.md to the one recorded
// run: every line of a ```golden block there must be a line of
// bench_results_full.txt, verbatim, and each of E1–E8 must quote at
// least one. `make papercheck` holds that file to what
// `e9bench -all -scale 0.25` prints, so a quoted number cannot drift
// from the code without one of the two failing.
func TestExperimentsQuoteGolden(t *testing.T) {
	golden, err := os.ReadFile("bench_results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		recorded[line] = true
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := map[string]int{} // section ("E1", ...) -> lines it quotes
	section, inBlock := "", false
	for n, line := range strings.Split(string(doc), "\n") {
		switch {
		case line == "```golden":
			inBlock = true
		case inBlock && line == "```":
			inBlock = false
		case inBlock:
			if !recorded[line] {
				t.Errorf("EXPERIMENTS.md:%d is not a line of bench_results_full.txt:\n%s", n+1, line)
			}
			quoted[section]++
		case strings.HasPrefix(line, "## "):
			section, _, _ = strings.Cut(strings.TrimPrefix(line, "## "), " ")
		}
	}
	if inBlock {
		t.Error("EXPERIMENTS.md ends inside a golden block")
	}
	for i := 1; i <= 8; i++ {
		if e := fmt.Sprintf("E%d", i); quoted[e] == 0 {
			t.Errorf("EXPERIMENTS.md section %s quotes no line of bench_results_full.txt", e)
		}
	}
}
