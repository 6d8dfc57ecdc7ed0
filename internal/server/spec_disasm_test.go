package server

import (
	"net/http/httptest"
	"strings"
	"testing"

	"e9patch"
)

// TestSpecDisasm covers the disasm request parameter: parsing,
// header override, canonical-key folding and config materialisation.
func TestSpecDisasm(t *testing.T) {
	spec := func(target string, hdr map[string]string) (*Spec, error) {
		req := httptest.NewRequest("POST", target, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		return parseSpec(req)
	}

	// Default is linear; an explicit "linear" is the same request.
	a, err := spec("/v1/rewrite?match=jcc", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec("/v1/rewrite?match=jcc&disasm=linear", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Fatal("explicit linear mode changed the cache key")
	}
	if a.Disasm != e9patch.DisasmLinear {
		t.Fatalf("default mode = %q", a.Disasm)
	}

	// A superset request is a distinct cache key: the recovered
	// instruction universe differs, so the outputs may too.
	c, err := spec("/v1/rewrite?match=jcc&disasm=superset", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Canonical() == a.Canonical() {
		t.Fatal("superset mode shares the linear cache key")
	}
	if !strings.Contains(c.Canonical(), "disasm=superset") {
		t.Fatalf("canonical key does not fold the mode: %s", c.Canonical())
	}

	// Header wins over the query value.
	d, err := spec("/v1/rewrite?match=jcc&disasm=superset", map[string]string{"X-E9-Disasm": "superset-cet"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Disasm != e9patch.DisasmSupersetCET {
		t.Fatalf("header override failed: %q", d.Disasm)
	}

	// Unknown modes are a client error at parse time.
	if _, err := spec("/v1/rewrite?match=jcc&disasm=recursive", nil); err == nil {
		t.Fatal("unknown mode accepted")
	}

	// The mode reaches the rewrite configuration.
	if cfg := d.Config(); cfg.Disasm != e9patch.DisasmSupersetCET {
		t.Fatalf("cfg.Disasm = %q", cfg.Disasm)
	}
}
