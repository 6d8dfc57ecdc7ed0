package server

import (
	"bytes"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"e9patch"
	"e9patch/internal/lang"
	"e9patch/internal/workload"
)

// postSpec POSTs bin to the rewrite endpoint with extra query values
// and headers, returning the response and body.
func postSpec(t *testing.T, ts *httptest.Server, bin []byte, query url.Values, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/rewrite?"+query.Encode(), bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestSpecParamEndToEnd drives the spec-language request path: the
// served output must be byte-identical to a direct library rewrite of
// the same spec, and the spec must key the cache separately from an
// equivalent match request.
func TestSpecParamEndToEnd(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bin := kernelELF(t)

	const specText = "match jcc & short\nexclude addr=0x0..0x1000\n"
	sp, err := lang.ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	br, err := sp.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e9patch.Rewrite(bin, e9patch.Config{Select: br.Select, Template: br.Template})
	if err != nil {
		t.Fatal(err)
	}

	q := url.Values{"spec": {specText}}
	resp, out := postSpec(t, ts, bin, q, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !bytes.Equal(out, want.Output) {
		t.Fatal("served output differs from direct library rewrite")
	}
	if got := resp.Header.Get("X-E9-Cache"); got != "miss" {
		t.Errorf("first request cache status %q", got)
	}

	// Repeat: same spec text must hit the cache.
	resp, _ = postSpec(t, ts, bin, q, nil)
	if got := resp.Header.Get("X-E9-Cache"); got != "hit" {
		t.Errorf("repeat cache status %q, want hit", got)
	}

	// A match request computing the same selection still keys
	// separately (spec hash folds into the cache key).
	resp, _ = postSpec(t, ts, bin, url.Values{"match": {"jcc & short"}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match request status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-E9-Cache"); got != "miss" {
		t.Errorf("match request cache status %q, want miss", got)
	}
	if n := metricValue(t, srv.Handler(), "e9served_rewrites_total"); n != 2 {
		t.Errorf("rewrites_total = %g, want 2", n)
	}
}

// TestSpecHeaderWithPayload exercises the base64 header transport and
// the call-patch payload: the shipped syscall_trace recipe rewrites a
// kernel through the service, byte-identically to the library.
func TestSpecHeaderWithPayload(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bin := kernelELF(t)

	rec, ok := workload.RecipeByName("syscall_trace")
	if !ok {
		t.Fatal("recipe missing")
	}
	payload, err := rec.BuildPayload()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := lang.ParseSpec(rec.Spec)
	if err != nil {
		t.Fatal(err)
	}
	br, err := sp.Build(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e9patch.Rewrite(bin, e9patch.Config{
		Select: br.Select, Template: br.Template, Inject: br.Inject,
	})
	if err != nil {
		t.Fatal(err)
	}

	hdr := map[string]string{
		"X-E9-Spec":    base64.StdEncoding.EncodeToString([]byte(rec.Spec)),
		"X-E9-Payload": base64.StdEncoding.EncodeToString(payload),
	}
	resp, out := postSpec(t, ts, bin, nil, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !bytes.Equal(out, want.Output) {
		t.Fatal("served output differs from direct library rewrite")
	}
}

// TestBadSpecMaps422 checks the ErrBadSpec contract: semantically
// invalid spec programs return 422 with the line:column in the body
// and count one bad-spec rejection (under the bare class label).
func TestBadSpecMaps422(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bin := kernelELF(t)

	resp, body := postSpec(t, ts, bin, url.Values{"spec": {"match bogus\n"}}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "line 1:7") {
		t.Errorf("body %q missing position line 1:7", body)
	}
	if !strings.Contains(string(body), "unknown term") {
		t.Errorf("body %q missing diagnosis", body)
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), `e9served_rejected_total{reason="bad-spec"} 1`) {
		t.Errorf("metrics missing bad-spec rejection:\n%s", rr.Body.String())
	}

	// A call patch without payload bytes is a 400-class request
	// problem, not a spec-syntax 422.
	resp, _ = postSpec(t, ts, bin, url.Values{"spec": {"match jcc\npatch call f(addr) @x\n"}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("payload-less call patch: status %d, want 400", resp.StatusCode)
	}
}

// TestSpecExclusiveWithMatch checks the parameter exclusivity rules.
func TestSpecExclusiveWithMatch(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bin := kernelELF(t)

	resp, body := postSpec(t, ts, bin,
		url.Values{"spec": {"match jcc\n"}, "match": {"jcc"}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
	}
	resp, _ = postSpec(t, ts, bin,
		url.Values{"spec": {"match jcc\n"}, "action": {"lowfat"}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("spec+action: status %d, want 400", resp.StatusCode)
	}
	// Bad base64 in the header transport.
	resp, _ = postSpec(t, ts, bin, nil, map[string]string{"X-E9-Spec": "!!!"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad base64: status %d, want 400", resp.StatusCode)
	}
}

// TestSpecCanonicalKeys pins the cache-key behaviour: distinct spec
// texts and distinct payloads yield distinct canonical forms, while a
// byte-identical request canonicalises identically.
func TestSpecCanonicalKeys(t *testing.T) {
	mk := func(text string, payload []byte) *Spec {
		s := &Spec{SpecText: text, Payload: payload, Granularity: 1}
		return s
	}
	a := mk("match jcc\n", nil)
	b := mk("match jcc & short\n", nil)
	c := mk("match jcc\n", []byte{1})
	if a.Canonical() == b.Canonical() {
		t.Error("different spec texts share a canonical form")
	}
	if a.Canonical() == c.Canonical() {
		t.Error("different payloads share a canonical form")
	}
	if a.Canonical() != mk("match jcc\n", nil).Canonical() {
		t.Error("identical requests canonicalise differently")
	}
	plain := &Spec{Match: "jcc", Action: "empty", Granularity: 1}
	if strings.Contains(plain.Canonical(), "|spec=") {
		t.Error("match requests must not carry a spec hash")
	}

	// match/action fold the payload's hash whenever one was sent, and
	// without one the key is the parameter string alone.
	call := func(payload []byte) *Spec {
		return &Spec{Match: "jcc", Action: "call cover(addr)", Payload: payload, Granularity: 1}
	}
	if call([]byte{1}).Canonical() == call([]byte{2}).Canonical() {
		t.Error("match/action with different payloads share a canonical form")
	}
	if call([]byte{1}).Canonical() == call(nil).Canonical() {
		t.Error("match/action with and without a payload share a canonical form")
	}
	req := httptest.NewRequest("POST", "/v1/rewrite?match=jcc", nil)
	s, err := parseSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	const today = "match=jcc|action=empty|M=1|skip=0|disasm=linear|b0=false"
	if got := s.Canonical(); got != today {
		t.Errorf("payload-less match key changed:\n got %s\nwant %s", got, today)
	}
}

// TestMatchActionCallPatch: action takes any patch directive, as e9tool's
// -P does, so a call patch sent as match/action with its payload in
// X-E9-Payload is served byte-identical to the library rewrite of
// lang.FromParts(match, action). Without the payload the call cannot be
// built: 400, as for spec=.
func TestMatchActionCallPatch(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bin := kernelELF(t)

	payload, err := workload.BuildCoveragePayload()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := lang.FromParts("jcc", "call cover(addr)")
	if err != nil {
		t.Fatal(err)
	}
	br, err := sp.Build(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e9patch.Rewrite(bin, e9patch.Config{
		Select: br.Select, Template: br.Template, Inject: br.Inject,
	})
	if err != nil {
		t.Fatal(err)
	}

	q := url.Values{"match": {"jcc"}, "action": {"call cover(addr)"}}
	resp, out := postSpec(t, ts, bin, q, map[string]string{
		"X-E9-Payload": base64.StdEncoding.EncodeToString(payload),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !bytes.Equal(out, want.Output) {
		t.Fatal("served output differs from direct library rewrite")
	}
	if resp, body := postSpec(t, ts, bin, q, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("payload-less call action: status %d (%s), want 400", resp.StatusCode, body)
	}
}
