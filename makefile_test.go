package e9patch

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileRunPatternsNameTests keeps the Makefile's gates honest:
// every top-level alternative of a `go test -run` pattern (its part
// before the first `/`) must name at least one Test, Fuzz, Benchmark or
// Example func in the package dirs on the same line. A renamed test
// then fails here instead of silently emptying a gate. The bench
// target's `-run xxx -bench` deliberately matches nothing.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run ('[^']*'|\S+)`)
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	funcs := map[string][]string{} // package dir -> its test func names
	namesIn := func(dir string) []string {
		if names, ok := funcs[dir]; ok {
			return names
		}
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Errorf("Makefile names package %s, which has no test files", dir)
		}
		var names []string
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range funcDecl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
		funcs[dir] = names
		return names
	}

	checked := 0
	for n, line := range strings.Split(string(mk), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if !strings.Contains(line, "$(GO) test") || m == nil || strings.Contains(line, "-run xxx -bench") {
			continue
		}
		pattern := strings.ReplaceAll(strings.Trim(m[1], "'"), "$$", "$")
		top, _, _ := strings.Cut(pattern, "/")
		var names []string
		for _, field := range strings.Fields(line) {
			if field == "." || strings.HasPrefix(field, "./") {
				names = append(names, namesIn(field)...)
			}
		}
		for _, alt := range topLevelAlternatives(top) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile:%d: -run alternative %q: %v", n+1, alt, err)
				continue
			}
			found := false
			for _, name := range names {
				if re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("Makefile:%d: -run alternative %q names no test func in its packages", n+1, alt)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no -run pattern found in the Makefile")
	}
}

// TestMakefileFuzzLinesCapMinimizing requires every `-fuzz` line of the
// Makefile to pass `-fuzzminimizetime`: at the default of 60 s a short
// run whose fuzzer finds many new inputs spends its time minimizing
// them instead of exploring.
func TestMakefileFuzzLinesCapMinimizing(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	fuzzed := 0
	for n, line := range strings.Split(string(mk), "\n") {
		if !strings.Contains(line, "$(GO) test") || !strings.Contains(line, " -fuzz ") {
			continue
		}
		fuzzed++
		if !strings.Contains(line, " -fuzzminimizetime ") {
			t.Errorf("Makefile:%d: -fuzz without -fuzzminimizetime: %s", n+1, strings.TrimSpace(line))
		}
	}
	if fuzzed == 0 {
		t.Fatal("no -fuzz line found in the Makefile")
	}
}

// TestMakefileCIRunsPapercheck requires make ci to run papercheck,
// whose diff of bench_results_full.txt is the only gate on every paper
// Time%, and every prerequisite of ci to be a target of the Makefile.
func TestMakefileCIRunsPapercheck(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	var ci []string
	for _, line := range strings.Split(string(mk), "\n") {
		name, deps, ok := strings.Cut(line, ":")
		if !ok || name == "" || strings.ContainsAny(name, " \t.$") {
			continue
		}
		targets[name] = true
		if name == "ci" {
			ci = strings.Fields(deps)
		}
	}
	if !slices.Contains(ci, "papercheck") {
		t.Errorf("make ci runs %v, not papercheck", ci)
	}
	for _, dep := range ci {
		if !targets[dep] {
			t.Errorf("make ci names %s, which the Makefile does not define", dep)
		}
	}
}

// topLevelAlternatives splits a regular expression at the `|` that lie
// outside any parenthesised group.
func topLevelAlternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}
