package server

import (
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"

	"e9patch"
	"e9patch/internal/lang"
	"e9patch/internal/patch"
)

// Spec is the rewrite configuration of one request, normalised so that
// equivalent requests canonicalise to the same cache key. Parameters
// are read from query values or X-E9-* headers (header wins), mirroring
// cmd/e9tool's flags:
//
//	match       match expression, e.g. "jcc & short" (required unless a
//	            spec program is supplied): e9tool's -M
//	action      patch directive (default empty): e9tool's -P, so empty |
//	            counter=ADDR | contextcall=ADDR | lowfat | lowfat-trap |
//	            call FN(args); match and action are lang.FromParts
//	spec        spec-language program (internal/lang): match/exclude/
//	            patch/payload directives. The query value carries the
//	            raw text; the X-E9-Spec header carries it base64
//	            (standard encoding). Exclusive with match/action.
//	payload     payload ELF for call patches, base64 in the query value
//	            or the X-E9-Payload header
//	granularity page-grouping granularity M (default 1, -1 disables)
//	skip        skip first N bytes of .text
//	disasm      instruction recovery mode: linear (default) | superset |
//	            superset-cet
//	b0-fallback int3 for sites every other tactic fails
//	reserve     extra reserved VA ranges, "0xLO-0xHI", repeatable or
//	            comma-separated
//
// Any other query parameter is a 400 naming it, so a misspelt one
// cannot silently fall back to a default.
//
// Every rewrite runs at the server's Workers width; the output is
// byte-identical at every width, so no request chooses it.
type Spec struct {
	Match       string
	Action      string
	SpecText    string
	Payload     []byte
	Granularity int
	SkipPrefix  uint64
	Disasm      e9patch.DisasmMode
	B0Fallback  bool
	Reserve     [][2]uint64

	// built is the eagerly lowered program (SpecText, or Match and
	// Action), so bad specs fail at parse time (422) and Config never
	// re-parses.
	built *lang.BuildResult
}

// specParams are the query parameters parseSpec reads.
var specParams = []string{"match", "action", "spec", "payload", "granularity", "skip", "disasm", "b0-fallback", "reserve"}

// parseSpec extracts and validates the Spec of a rewrite request.
func parseSpec(r *http.Request) (*Spec, error) {
	q := r.URL.Query()
	for name := range q {
		if !slices.Contains(specParams, name) {
			return nil, fmt.Errorf("unknown parameter %q", name)
		}
	}
	get := func(name string) string {
		if v := r.Header.Get("X-E9-" + name); v != "" {
			return v
		}
		return q.Get(name)
	}

	s := &Spec{Match: get("match"), Action: get("action"), Granularity: 1}
	s.SpecText = q.Get("spec")
	if h := r.Header.Get("X-E9-Spec"); h != "" {
		text, err := base64.StdEncoding.DecodeString(h)
		if err != nil {
			return nil, fmt.Errorf("header X-E9-Spec: %w", err)
		}
		s.SpecText = string(text)
	}
	for _, src := range []struct{ name, val string }{
		{"parameter payload", q.Get("payload")},
		{"header X-E9-Payload", r.Header.Get("X-E9-Payload")}, // header wins
	} {
		if src.val == "" {
			continue
		}
		raw, err := base64.StdEncoding.DecodeString(src.val)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", src.name, err)
		}
		s.Payload = raw
	}
	switch {
	case s.SpecText != "" && (s.Match != "" || s.Action != ""):
		return nil, fmt.Errorf("parameter spec is exclusive with match/action")
	case s.SpecText == "" && s.Match == "":
		return nil, fmt.Errorf("parameter match or spec is required (e.g. ?match=jcc+%%26+short)")
	}
	if s.Action == "" {
		s.Action = "empty"
	}
	if v := get("granularity"); v != "" {
		g, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("parameter granularity: %w", err)
		}
		// Granularity sizes block allocations in the emit phase, so it
		// must not be client-controlled beyond a sane range: -1 disables
		// grouping, 1..MaxGranularity sets the block size in pages.
		if g == 0 || g < -1 || g > e9patch.MaxGranularity {
			return nil, fmt.Errorf("parameter granularity: want -1 or 1..%d, got %d", e9patch.MaxGranularity, g)
		}
		s.Granularity = g
	}
	if v := get("skip"); v != "" {
		sk, err := strconv.ParseUint(v, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter skip: %w", err)
		}
		s.SkipPrefix = sk
	}
	mode, err := e9patch.ParseDisasmMode(get("disasm"))
	if err != nil {
		return nil, fmt.Errorf("parameter disasm: %w", err)
	}
	s.Disasm = mode
	if v := get("b0-fallback"); v != "" {
		if s.B0Fallback, err = strconv.ParseBool(v); err != nil {
			return nil, fmt.Errorf("parameter b0-fallback: %w", err)
		}
	}

	ranges := q["reserve"]
	if h := r.Header.Get("X-E9-Reserve"); h != "" {
		ranges = append(ranges, h)
	}
	for _, rv := range ranges {
		for _, one := range strings.Split(rv, ",") {
			one = strings.TrimSpace(one)
			if one == "" {
				continue
			}
			lo, hi, ok := strings.Cut(one, "-")
			if !ok {
				return nil, fmt.Errorf("parameter reserve: want 0xLO-0xHI, got %q", one)
			}
			l, err := strconv.ParseUint(strings.TrimSpace(lo), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("parameter reserve: %w", err)
			}
			h, err := strconv.ParseUint(strings.TrimSpace(hi), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("parameter reserve: %w", err)
			}
			if h <= l {
				return nil, fmt.Errorf("parameter reserve: empty range %q", one)
			}
			s.Reserve = append(s.Reserve, [2]uint64{l, h})
		}
	}
	sort.Slice(s.Reserve, func(a, b int) bool {
		if s.Reserve[a][0] != s.Reserve[b][0] {
			return s.Reserve[a][0] < s.Reserve[b][0]
		}
		return s.Reserve[a][1] < s.Reserve[b][1]
	})

	// Lower eagerly so bad requests fail before queueing: match/action
	// and spec= are one program (lang.FromParts is e9tool's -M/-P), so a
	// malformed one is ErrBadSpec (422 with the line:column) whichever
	// way it came, and everything else is a 400.
	var sp *lang.Spec
	if s.SpecText != "" {
		sp, err = lang.ParseSpec(s.SpecText)
	} else {
		sp, err = lang.FromParts(s.Match, s.Action)
	}
	if err != nil {
		return nil, err
	}
	if s.built, err = sp.Build(s.Payload); err != nil {
		return nil, err
	}
	return s, nil
}

// Canonical renders the spec as a stable string: fixed field order,
// normalised defaults, sorted reserve ranges. Note the match
// expression itself is embedded verbatim — "jcc&short" and
// "jcc & short" are distinct keys even though they compile to the same
// predicate; canonicalisation covers parameters, not expression
// algebra.
func (s *Spec) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "match=%s|action=%s|M=%d|skip=%d|disasm=%s|b0=%t",
		s.Match, s.Action, s.Granularity, s.SkipPrefix, s.Disasm, s.B0Fallback)
	for _, r := range s.Reserve {
		fmt.Fprintf(&b, "|reserve=%#x-%#x", r[0], r[1])
	}
	// Spec programs and payloads fold into the key as content hashes
	// (the program can be kilobytes, the payload megabytes); both cache
	// tiers inherit the distinction automatically. A match/action
	// request without a payload adds nothing, so its key is the
	// parameter string alone.
	switch {
	case s.SpecText != "":
		hs := sha256.Sum256([]byte(s.SpecText))
		hp := sha256.Sum256(s.Payload)
		fmt.Fprintf(&b, "|spec=%x|payload=%x", hs, hp)
	case len(s.Payload) > 0:
		fmt.Fprintf(&b, "|payload=%x", sha256.Sum256(s.Payload))
	}
	return b.String()
}

// Config builds the e9patch.Config the spec describes; s must come from
// parseSpec, which lowered its program.
func (s *Spec) Config() e9patch.Config {
	return e9patch.Config{
		Select:      s.built.Select,
		Template:    s.built.Template,
		Inject:      s.built.Inject,
		ReserveVA:   append(append([][2]uint64(nil), s.Reserve...), s.built.ReserveVA...),
		Granularity: s.Granularity,
		SkipPrefix:  s.SkipPrefix,
		Disasm:      s.Disasm,
		Patch:       patch.Options{B0Fallback: s.B0Fallback},
	}
}
