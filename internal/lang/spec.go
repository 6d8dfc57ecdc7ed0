package lang

import (
	"fmt"
	"strings"

	"e9patch/internal/e9err"
	"e9patch/internal/x86"
)

// Spec is a parsed, typechecked and compiled spec file: a match
// expression, optional exclusions, and a patch directive.
type Spec struct {
	// Match is the required match expression's AST.
	Match Node
	// MatchSrc is the match expression's source text.
	MatchSrc string
	// Excludes are exclusion expressions; instructions they match are
	// removed from the selection.
	Excludes []Node
	// ExcludeSrcs are the exclusion source texts, same order.
	ExcludeSrcs []string
	// Patch is the patch directive (defaults to empty).
	Patch *PatchSpec
	// PayloadRef is the payload reference (the patch directive's @REF,
	// or a standalone payload directive).
	PayloadRef string

	prog *Program // effective compiled program (match && !excludes)
}

// ParseSpec parses a spec file:
//
//	# comment
//	match EXPR        required, exactly once
//	exclude EXPR      optional, repeatable
//	patch PATCH       optional, at most once (default: empty)
//	payload REF       optional, at most once
//
// Positions in errors are file-accurate (directive line, expression
// column).
func ParseSpec(text string) (*Spec, error) {
	const phase = "spec"
	if len(text) > maxSpecBytes {
		return nil, e9err.BadSpec(phase, 1, 1, "spec too large (%d bytes, limit %d)", len(text), maxSpecBytes)
	}
	s := &Spec{}
	var exProgs []*Program
	var matchProg *Program
	lines := strings.Split(text, "\n")
	for ln, raw := range lines {
		line := strings.TrimRight(raw, "\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		word := trimmed
		if i := strings.IndexAny(trimmed, " \t"); i >= 0 {
			word = trimmed[:i]
		}
		rest := strings.TrimPrefix(trimmed, word)
		indent := len(line) - len(trimmed)
		// Column of the directive argument's first character, 1-based.
		col := indent + len(word) + countLeft(rest) + 1
		rest = strings.TrimSpace(rest)
		base := Pos{Line: ln + 1, Col: col}
		wordAt := Pos{Line: ln + 1, Col: indent + 1}

		switch word {
		case "match":
			if s.Match != nil {
				return nil, e9err.BadSpec(phase, wordAt.Line, wordAt.Col, "duplicate match directive")
			}
			n, err := parseExprString(rest, base, phase)
			if err != nil {
				return nil, err
			}
			s.Match = n
			s.MatchSrc = rest
			matchProg = compileChecked(n)

		case "exclude":
			n, err := parseExprString(rest, base, phase)
			if err != nil {
				return nil, err
			}
			s.Excludes = append(s.Excludes, n)
			s.ExcludeSrcs = append(s.ExcludeSrcs, rest)
			exProgs = append(exProgs, compileChecked(n))

		case "patch":
			if s.Patch != nil {
				return nil, e9err.BadSpec(phase, wordAt.Line, wordAt.Col, "duplicate patch directive")
			}
			ps, err := parsePatchString(rest, base, phase)
			if err != nil {
				return nil, err
			}
			s.Patch = ps

		case "payload":
			if s.PayloadRef != "" {
				return nil, e9err.BadSpec(phase, wordAt.Line, wordAt.Col, "duplicate payload directive")
			}
			if rest == "" {
				return nil, e9err.BadSpec(phase, base.Line, base.Col, "payload directive needs a reference")
			}
			s.PayloadRef = rest

		default:
			return nil, e9err.BadSpec(phase, wordAt.Line, wordAt.Col,
				"unknown directive %q (want match, exclude, patch or payload)", word)
		}
	}
	if s.Match == nil {
		return nil, e9err.BadSpec(phase, 1, 1, "spec has no match directive")
	}
	if s.Patch == nil {
		s.Patch = &PatchSpec{Src: "empty"}
	}
	if s.Patch.PayloadRef != "" {
		if s.PayloadRef != "" && s.PayloadRef != s.Patch.PayloadRef {
			return nil, e9err.BadSpec(phase, 1, 1,
				"conflicting payload references %q and %q", s.Patch.PayloadRef, s.PayloadRef)
		}
		s.PayloadRef = s.Patch.PayloadRef
	}
	s.prog = compose(matchProg, exProgs)
	return s, nil
}

// countLeft counts the leading whitespace of s.
func countLeft(s string) int {
	n := 0
	for n < len(s) && (s[n] == ' ' || s[n] == '\t') {
		n++
	}
	return n
}

// FromParts assembles a Spec from separate match and patch strings —
// the e9tool -M/-P path. patchSrc may be empty (empty patch).
func FromParts(matchExpr, patchSrc string) (*Spec, error) {
	n, err := parseExprString(matchExpr, Pos{Line: 1, Col: 1}, "match")
	if err != nil {
		return nil, err
	}
	ps, err := ParsePatch(patchSrc)
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Match:      n,
		MatchSrc:   strings.TrimSpace(matchExpr),
		Patch:      ps,
		PayloadRef: ps.PayloadRef,
		prog:       compileChecked(n),
	}
	return s, nil
}

// Program returns the effective compiled program: the match
// expression with all exclusions conjoined negatively.
func (s *Spec) Program() *Program { return s.prog }

// Selector returns a patch-location selector for the effective
// program, registered match.Shardable.
func (s *Spec) Selector() func(insts []x86.Loc) []int { return s.prog.Selector() }

// Dump renders the whole spec as per-directive typed ASTs — the
// e9dump -spec output.
func (s *Spec) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "match %s\n", s.MatchSrc)
	b.WriteString(indentLines(DumpNode(s.Match)))
	for i, ex := range s.Excludes {
		fmt.Fprintf(&b, "exclude %s\n", s.ExcludeSrcs[i])
		b.WriteString(indentLines(DumpNode(ex)))
	}
	fmt.Fprintf(&b, "patch %s\n", s.Patch)
	if s.PayloadRef != "" {
		fmt.Fprintf(&b, "payload %s\n", s.PayloadRef)
	}
	return b.String()
}

func indentLines(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
