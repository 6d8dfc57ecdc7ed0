package e9patch

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocCitations keeps the prose to the tree: DESIGN.md, README.md,
// EXPERIMENTS.md, the verify notes, the Makefile's comments and every
// comment in a .go file may name only things that exist. It checks four kinds of citation:
//   - a Test, Fuzz or Benchmark func (a test, or the method of that
//     name it documents), by exact name or as a `Name*` family that
//     must match at least one;
//   - a `make` target, in backticks or in a fenced code block;
//   - a repository path, under a top-level directory (resolved from the
//     root, and for a comment also from its file's directory) or a bare
//     file name with a known extension (some file of that name exists);
//   - a `DESIGN.md §N` or `§N.M` section; inside DESIGN.md a bare §N
//     is its own section unless the word before it is "paper".
//
// It only reads files. A renamed test, a deleted path or target, or a
// renumbered section then fails here instead of leaving a stale pointer.
func TestDocCitations(t *testing.T) {
	tests := map[string]bool{} // Test, Fuzz, Benchmark and Example funcs
	funcDecl := regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	baseNames := map[string]bool{}
	var goFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") && d.Name() != ".claude") {
				return filepath.SkipDir
			}
			return nil
		}
		baseNames[d.Name()] = true
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range funcDecl.FindAllSubmatch(src, -1) {
				tests[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][\w-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^##(#?) (\d+(?:\.\d+)?)\.? `).FindAllSubmatch(design, -1) {
		sections[string(m[2])] = true
	}

	var (
		testRE    = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*?)`)
		makeRE    = regexp.MustCompile("`make ([a-z][\\w-]*)")
		makeCode  = regexp.MustCompile(`(?m)^\s*make ([a-z][\w-]*)`)
		pathRE    = regexp.MustCompile("(?:^|[\\s(`\"'])(?:\\./)?((?:internal|cmd|testdata|bench|examples|\\.claude)/[\\w./*-]*[\\w*])")
		fileRE    = regexp.MustCompile("(?:^|[\\s(`\"'])([A-Za-z_][\\w-]*\\.(?:go|md|json|txt|e9spec))\\b")
		designRE  = regexp.MustCompile("DESIGN(?:\\.md)?`?\\s*(?://\\s*)?§(\\d+(?:\\.\\d+)?)")
		bareSecRE = regexp.MustCompile(`(\w*)\s*§(\d+(?:\.\d+)?)`)
	)

	// check reports every dangling citation in text, which starts at
	// line first of file; dir is where a relative path may also resolve.
	checked := 0
	check := func(file string, first int, text, dir string, code bool) {
		at := func(i int) string {
			return fmt.Sprintf("%s:%d", file, first+strings.Count(text[:i], "\n"))
		}
		for _, m := range testRE.FindAllStringSubmatchIndex(text, -1) {
			name, family := text[m[2]:m[3]], m[5] > m[4]
			found := tests[name]
			for have := range tests {
				if found || !family {
					break
				}
				found = strings.HasPrefix(have, name)
			}
			if !found {
				t.Errorf("%s: %s%s names no test func", at(m[0]), name, text[m[4]:m[5]])
			}
			checked++
		}
		makes := makeRE.FindAllStringSubmatchIndex(text, -1)
		if code {
			makes = append(makes, makeCode.FindAllStringSubmatchIndex(text, -1)...)
		}
		for _, m := range makes {
			if !targets[text[m[2]:m[3]]] {
				t.Errorf("%s: make %s is not a Makefile target", at(m[0]), text[m[2]:m[3]])
			}
			checked++
		}
		for _, m := range pathRE.FindAllStringSubmatchIndex(text, -1) {
			p := strings.TrimRight(text[m[2]:m[3]], ".")
			found := false
			for _, base := range []string{".", dir} {
				if hits, _ := filepath.Glob(filepath.Join(base, p)); len(hits) > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: path %s does not exist", at(m[2]), p)
			}
			checked++
		}
		for _, m := range fileRE.FindAllStringSubmatchIndex(text, -1) {
			if !baseNames[text[m[2]:m[3]]] {
				t.Errorf("%s: no file is named %s", at(m[2]), text[m[2]:m[3]])
			}
			checked++
		}
		for _, m := range designRE.FindAllStringSubmatchIndex(text, -1) {
			if !sections[text[m[2]:m[3]]] {
				t.Errorf("%s: DESIGN.md has no §%s", at(m[0]), text[m[2]:m[3]])
			}
			checked++
		}
	}

	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Code blocks are checked for make lines, prose for backticked ones.
		inCode := false
		for n, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inCode = !inCode
				continue
			}
			check(doc, n+1, line, ".", inCode)
		}
	}
	for n, line := range strings.Split(string(mk), "\n") {
		if strings.HasPrefix(line, "#") {
			check("Makefile", n+1, line, ".", false)
		}
	}
	for n, line := range strings.Split(string(design), "\n") {
		for _, m := range bareSecRE.FindAllStringSubmatch(line, -1) {
			if m[1] != "paper" && m[1] != "Paper" && !sections[m[2]] {
				t.Errorf("DESIGN.md:%d: no §%s (write \"paper §%s\" for the paper's)", n+1, m[2], m[2])
			}
		}
	}
	fset := token.NewFileSet()
	for _, path := range goFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			var raw []string
			for _, c := range cg.List {
				raw = append(raw, c.Text)
			}
			check(path, fset.Position(cg.Pos()).Line, strings.Join(raw, "\n"), filepath.Dir(path), false)
		}
	}
	if checked == 0 {
		t.Fatal("no citation found")
	}
	t.Logf("%d citations in 5 documents and %d Go files", checked, len(goFiles))
}
