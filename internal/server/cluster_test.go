package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"e9patch"
	"e9patch/internal/cluster"
	"e9patch/internal/workload"
)

// swapHandler lets an httptest server start (fixing its URL) before the
// e9served node behind it exists — cluster configs need every peer URL
// up front.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not up", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testCluster is an in-process multi-node e9served cluster.
type testCluster struct {
	nodes []*Server
	https []*httptest.Server
	urls  []string
}

// newTestCluster starts n nodes sharing one static peer list. mutate,
// when non-nil, adjusts each node's config before construction.
func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	swaps := make([]*swapHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		tc.https = append(tc.https, ts)
		tc.urls = append(tc.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		cfg := Config{
			Workers:  2,
			QueueLen: 16,
			Cluster: cluster.Config{
				Self:     tc.urls[i],
				Peers:    tc.urls,
				Cooldown: 50 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := New(cfg)
		tc.nodes = append(tc.nodes, srv)
		swaps[i].set(srv.Handler())
	}
	t.Cleanup(func() {
		for _, ts := range tc.https {
			ts.Close()
		}
		for _, srv := range tc.nodes {
			srv.Close()
		}
	})
	return tc
}

// ownerOf returns the index of the node owning the request's cache key.
func (tc *testCluster) ownerOf(t *testing.T, bin []byte, query string) int {
	t.Helper()
	spec, err := batchSpec(query)
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.nodes[0].ring.Owner(cacheKey(bin, spec))
	for i, u := range tc.urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a cluster node", owner)
	return -1
}

// post sends a /v1/rewrite to node i, optionally marking it as already
// routed (so the node must handle it locally instead of forwarding).
func (tc *testCluster) post(t *testing.T, i int, query string, bin []byte, routed bool, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost,
		tc.urls[i]+"/v1/rewrite?"+query, bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	if routed {
		req.Header.Set(routedHeader, "1")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

const clusterQuery = "match=jcc+%26+short&action=empty"

// TestClusterForwarding verifies the front-door router: a request
// landing on a non-owner is proxied to the owner, whose response (and
// cache shard) serves it; the relay is marked with X-E9-Node.
func TestClusterForwarding(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	bin := kernelELF(t)
	owner := tc.ownerOf(t, bin, clusterQuery)
	other := (owner + 1) % 3

	resp, out := tc.post(t, other, clusterQuery, bin, false, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded rewrite: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-E9-Node"); got != tc.urls[owner] {
		t.Fatalf("X-E9-Node %q, want owner %q", got, tc.urls[owner])
	}
	if got := metricValue(t, tc.nodes[other].Handler(), "e9served_forwarded_total"); got != 1 {
		t.Fatalf("forwarded_total on front door = %g, want 1", got)
	}
	if got := metricValue(t, tc.nodes[owner].Handler(), "e9served_rewrites_total"); got != 1 {
		t.Fatalf("rewrites_total on owner = %g, want 1", got)
	}
	if got := metricValue(t, tc.nodes[other].Handler(), "e9served_rewrites_total"); got != 0 {
		t.Fatalf("rewrites_total on front door = %g, want 0", got)
	}

	// The shard discipline holds: a repeat through the front door is the
	// owner's cache hit.
	resp2, _ := tc.post(t, other, clusterQuery, bin, false, nil)
	if got := resp2.Header.Get("X-E9-Cache"); got != "hit" {
		t.Fatalf("repeat cache status %q, want hit (owner shard)", got)
	}
}

// TestClusterOwnerDownFallback kills a key's owner and checks the
// other nodes keep serving that key locally — availability beats shard
// discipline — and that the forward-fallback metric records it.
func TestClusterOwnerDownFallback(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	bin := kernelELF(t)
	owner := tc.ownerOf(t, bin, clusterQuery)
	other := (owner + 1) % 3

	tc.https[owner].Close()

	resp, out := tc.post(t, other, clusterQuery, bin, false, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rewrite with owner down: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-E9-Cache"); got != "miss" {
		t.Fatalf("cache status %q, want miss (local rewrite fallback)", got)
	}
	if got := metricValue(t, tc.nodes[other].Handler(), "e9served_forward_fallback_total"); got != 1 {
		t.Fatalf("forward_fallback_total = %g, want 1", got)
	}

	// While the owner's cooldown holds, the next request skips the dead
	// peer entirely (no second fallback increment) and hits locally.
	resp2, _ := tc.post(t, other, clusterQuery, bin, false, nil)
	if got := resp2.Header.Get("X-E9-Cache"); got != "hit" {
		t.Fatalf("repeat cache status %q, want local hit", got)
	}
}

// TestClusterForwardedPlanGzip: a plan-delta request that lands on a
// non-owner and negotiates gzip gets a body that decodes as a plan,
// after a gunzip exactly when Content-Encoding says so. The owner's
// answer is served by this node, which negotiates the encoding with its
// own client; relaying the owner's wire bytes lost Content-Encoding.
func TestClusterForwardedPlanGzip(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	bin := kernelELF(t)
	owner := tc.ownerOf(t, bin, clusterQuery)
	other := (owner + 1) % 3

	resp, body := tc.post(t, other, clusterQuery, bin, false, map[string]string{
		"Accept": cluster.PlanContentType, "Accept-Encoding": "gzip"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded plan-delta: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-E9-Node"); got != tc.urls[owner] {
		t.Fatalf("X-E9-Node %q, want owner %q", got, tc.urls[owner])
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("Content-Encoding gzip, but the body is not: %v", err)
		}
		if body, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	}
	p, err := e9patch.DecodePlan(body)
	if err != nil {
		t.Fatalf("forwarded plan-delta does not decode: %v", err)
	}
	applied, err := e9patch.Apply(bin, p)
	if err != nil {
		t.Fatalf("client-side apply: %v", err)
	}
	if !bytes.Equal(applied.Output, directRewrite(t, bin, "jcc & short")) {
		t.Fatal("the forwarded plan, applied, differs from a direct rewrite")
	}
}

// TestClusterBatchItemAskedOfOwner: a cold batch item that lands on a
// node not owning its key is rewritten, and banked, by the owner, and
// the batch node banks nothing: the owner then answers a /v1/rewrite of
// the same key from its result tier, and a want=plan item from its plan
// tier.
func TestClusterBatchItemAskedOfOwner(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	bin := kernelELF(t)
	owner := tc.ownerOf(t, bin, clusterQuery)
	other := (owner + 1) % 3

	_, results := batchLines(t, tc.urls[other], []batchItem{{ID: "bin", Query: clusterQuery, Binary: bin}}, "")
	if len(results) != 1 || results[0].Status != http.StatusOK || results[0].Cache != "miss" {
		t.Fatalf("cold batch item: %+v, want 200 miss", results)
	}
	if !bytes.Equal(results[0].Output, directRewrite(t, bin, "jcc & short")) {
		t.Fatal("batch item output differs from a direct rewrite")
	}
	for i, want := range map[int]float64{owner: 1, other: 0} {
		if got := metricValue(t, tc.nodes[i].Handler(), "e9served_rewrites_total"); got != want {
			t.Fatalf("rewrites_total on node %d = %g, want %g (owner %d, batch node %d)", i, got, want, owner, other)
		}
	}
	if entries, _, _ := tc.nodes[other].cache.stats(); entries != 0 {
		t.Fatalf("the batch node banked %d results", entries)
	}

	resp, out := tc.post(t, owner, clusterQuery, bin, false, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-E9-Cache") != "hit" {
		t.Fatalf("owner after the batch: %d %q, want 200 hit", resp.StatusCode, resp.Header.Get("X-E9-Cache"))
	}
	if !bytes.Equal(out, results[0].Output) {
		t.Fatal("the owner's result differs from the batch item's")
	}

	_, results = batchLines(t, tc.urls[other], []batchItem{{ID: "plan", Query: clusterQuery, Binary: bin, Want: "plan"}}, "")
	if len(results) != 1 || results[0].Status != http.StatusOK || results[0].Cache != "plan" {
		t.Fatalf("want=plan batch item: %+v, want 200 plan", results)
	}
	p, err := e9patch.DecodePlan(results[0].Plan)
	if err != nil {
		t.Fatalf("batch plan does not decode: %v", err)
	}
	applied, err := e9patch.Apply(bin, p)
	if err != nil {
		t.Fatalf("client-side apply: %v", err)
	}
	if !bytes.Equal(applied.Output, out) {
		t.Fatal("the applied batch plan differs from the owner's result")
	}
	if got := metricValue(t, tc.nodes[owner].Handler(), "e9served_rewrites_total"); got != 1 {
		t.Fatalf("rewrites_total on the owner = %g after the plan item, want 1", got)
	}
}

// TestPlanDeltaResponse verifies the egress-saving response mode: with
// Accept: application/x-e9-plan the server ships the serialized plan,
// the client applies it locally, and the result is byte-identical to a
// full-binary response — at a fraction of the response size.
func TestPlanDeltaResponse(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bin := kernelELF(t)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/rewrite?"+clusterQuery, bytes.NewReader(bin))
	req.Header.Set("Accept", cluster.PlanContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	planBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan-delta: %d %s", resp.StatusCode, planBytes)
	}
	if ct := resp.Header.Get("Content-Type"); ct != cluster.PlanContentType {
		t.Fatalf("content type %q, want %q", ct, cluster.PlanContentType)
	}

	p, err := e9patch.DecodePlan(planBytes)
	if err != nil {
		t.Fatalf("plan-delta body does not decode: %v", err)
	}
	applied, err := e9patch.ApplyTo(context.Background(), nil, bin, p)
	if err != nil {
		t.Fatalf("client-side apply: %v", err)
	}

	full, err := http.Post(ts.URL+"/v1/rewrite?"+clusterQuery, "application/octet-stream", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	fullOut, _ := io.ReadAll(full.Body)
	full.Body.Close()
	if !bytes.Equal(applied.Output, fullOut) {
		t.Fatal("client-side apply of the plan-delta differs from the served binary")
	}
	if len(planBytes) >= len(fullOut) {
		t.Fatalf("plan-delta is not smaller than the binary response (%d >= %d)", len(planBytes), len(fullOut))
	}
}

// TestPlanDeltaMissAnswersItsPlan: with a plan tier too small to hold
// any plan, a cold plan-delta request must still answer 200 with the
// plan its own rewrite made, read from the flight rather than from the
// plan cache. So must a plan waiter coalesced onto a binary request's
// flight and a want=plan batch item. Each plan, applied client-side,
// reproduces the binary response to the same request, and nothing is
// logged as an internal failure.
func TestPlanDeltaMissAnswersItsPlan(t *testing.T) {
	var logged []string
	var logMu sync.Mutex
	srv := New(Config{Workers: 2, QueueLen: 8, PlanCacheBytes: 1, Logf: func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})
	real := srv.rewrite
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	srv.rewrite = func(ctx context.Context, bin []byte, spec *Spec) (*e9patch.Result, []byte, error) {
		if spec.Match == "jcc" { // the coalescing case holds its flight open
			started <- struct{}{}
			<-gate
		}
		return real(ctx, bin, spec)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bin := kernelELF(t)

	type reply struct {
		status      int
		cache, body string
	}
	post := func(query string, plan bool) reply {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/rewrite?"+query, bytes.NewReader(bin))
		if plan {
			req.Header.Set("Accept", cluster.PlanContentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return reply{}
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return reply{resp.StatusCode, resp.Header.Get("X-E9-Cache"), string(body)}
	}
	// applies checks that plan, applied to bin, is the binary answer.
	applies := func(label string, plan []byte, binary []byte) {
		t.Helper()
		p, err := e9patch.DecodePlan(plan)
		if err != nil {
			t.Fatalf("%s: the plan does not decode: %v", label, err)
		}
		res, err := e9patch.Apply(bin, p)
		if err != nil {
			t.Fatalf("%s: apply: %v", label, err)
		}
		if !bytes.Equal(res.Output, binary) {
			t.Fatalf("%s: the applied plan differs from the binary response", label)
		}
	}

	// A cold plan-delta request, then the binary for the same request.
	pr := post("match=jump", true)
	if pr.status != http.StatusOK || pr.cache != "miss" {
		t.Fatalf("cold plan-delta: %d %q (%s), want 200 miss", pr.status, pr.cache, pr.body)
	}
	br := post("match=jump", false)
	if br.status != http.StatusOK || br.cache != "hit" {
		t.Fatalf("binary after the plan-delta: %d %q, want 200 hit", br.status, br.cache)
	}
	applies("cold", []byte(pr.body), []byte(br.body))

	// A plan waiter coalesced onto a binary request's flight.
	replies := make(chan reply, 2)
	go func() { replies <- post("match=jcc", false) }()
	<-started
	go func() { replies <- post("match=jcc", true) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.flights.mu.Lock()
		waiters := 0
		for _, f := range srv.flights.m {
			waiters += f.waiters
		}
		srv.flights.mu.Unlock()
		if waiters == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 requests joined the flight", waiters)
		}
	}
	close(gate)
	got := map[string]reply{}
	for range 2 {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("coalescing pair: %d %q (%s), want 200", r.status, r.cache, r.body)
		}
		got[r.cache] = r
	}
	if _, ok := got["miss"]; !ok || got["coalesced"].status == 0 {
		t.Fatalf("coalescing pair answered from %v, want miss and coalesced", got)
	}
	applies("coalesced", []byte(got["coalesced"].body), []byte(got["miss"].body))

	// A want=plan batch item, then a binary one for the same request.
	_, results := batchLines(t, ts.URL, []batchItem{{ID: "plan", Query: "match=call", Binary: bin, Want: "plan"}}, "")
	if len(results) != 1 || results[0].Status != http.StatusOK || results[0].Cache != "miss" {
		t.Fatalf("want=plan batch item: %+v, want 200 miss", results)
	}
	_, binResults := batchLines(t, ts.URL, []batchItem{{ID: "bin", Query: "match=call", Binary: bin}}, "")
	if len(binResults) != 1 || binResults[0].Status != http.StatusOK {
		t.Fatalf("binary batch item: %+v", binResults)
	}
	applies("batch", results[0].Plan, binResults[0].Output)

	if entries, _, _ := srv.plans.stats(); entries != 0 {
		t.Fatalf("the one-byte plan tier holds %d plans", entries)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) != 0 {
		t.Fatalf("internal failures logged: %q", logged)
	}
}

// TestPlanDeltaGzip pins the wire compression of plan-delta responses:
// a client that negotiates gzip gets a Content-Encoding: gzip body
// that is smaller than the identity encoding and gunzips to the same
// plan. It is also the egress gate: the gzipped plan is at most 10 % of
// the full response, and applying it on the client reproduces that
// response byte for byte. The 8 MB streaming input, branch-dense under
// `jcc & short`, is the one that came close when plans were JSON: its
// plan was 7 256 666 bytes, 726 225 after gzip (8.0 % of the response).
// The binary plan is 549 882 bytes and 362 955 after gzip (4.0 %); it
// may never again gzip to more than the JSON did.
func TestPlanDeltaGzip(t *testing.T) {
	stream, err := workload.BuildStream(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name    string
		bin     []byte
		ceiling int // gzipped plan bytes; 0: the 10 % gate alone
	}{
		{"kernel", kernelELF(t), 0},
		{"stream-8mb", stream.ELF, 726_225},
	} {
		t.Run(in.name, func(t *testing.T) {
			srv := New(Config{Workers: 2, QueueLen: 8})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			fetch := func(accept string, gz bool) (*http.Response, []byte) {
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/rewrite?"+clusterQuery, bytes.NewReader(in.bin))
				if accept != "" {
					req.Header.Set("Accept", accept)
				}
				if gz {
					// Setting Accept-Encoding by hand disables the transport's
					// transparent decompression: the body read here is wire bytes.
					req.Header.Set("Accept-Encoding", "gzip")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("accept=%q gzip=%v: %d %.200s", accept, gz, resp.StatusCode, body)
				}
				return resp, body
			}

			plainResp, plain := fetch(cluster.PlanContentType, false)
			if enc := plainResp.Header.Get("Content-Encoding"); enc != "" {
				t.Fatalf("identity response carries Content-Encoding %q", enc)
			}
			zResp, wire := fetch(cluster.PlanContentType, true)
			if enc := zResp.Header.Get("Content-Encoding"); enc != "gzip" {
				t.Fatalf("gzip-negotiated response carries Content-Encoding %q", enc)
			}
			if len(wire) >= len(plain) {
				t.Fatalf("gzip wire body is not smaller (%d >= %d)", len(wire), len(plain))
			}
			zr, err := gzip.NewReader(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("wire body is not gzip: %v", err)
			}
			raw, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, plain) {
				t.Fatal("gzip body does not decompress to the identity body")
			}
			pl, err := e9patch.DecodePlan(raw)
			if err != nil {
				t.Fatalf("decompressed plan does not decode: %v", err)
			}
			_, full := fetch("", false)
			ratio := float64(len(wire)) / float64(len(full))
			t.Logf("plan-delta egress: plan %d bytes, %d gzipped, of a %d-byte response (%.1f%%)", len(plain), len(wire), len(full), 100*ratio)
			if ratio > 0.10 {
				t.Fatal("plan-delta egress is over the 10% ceiling")
			}
			if in.ceiling > 0 && len(wire) > in.ceiling {
				t.Fatalf("gzipped plan is %d bytes, over the %d the JSON plan gzipped to", len(wire), in.ceiling)
			}
			applied, err := e9patch.Apply(in.bin, pl)
			if err != nil {
				t.Fatalf("client-side apply: %v", err)
			}
			if !bytes.Equal(applied.Output, full) {
				t.Fatal("client-side apply of the plan differs from the full response")
			}
		})
	}
}

// batchLine posts one /v1/batch request and decodes the NDJSON results.
func batchLines(t *testing.T, url string, items []batchItem, tenant string) (*http.Response, []batchResult) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			t.Fatal(err)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/batch", &buf)
	if tenant != "" {
		req.Header.Set("X-E9-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var results []batchResult
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var res batchResult
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("result line %d: %v", len(results), err)
		}
		results = append(results, res)
	}
	return resp, results
}

// TestBatchEndToEnd runs a mixed batch on one node: two distinct valid
// rewrites plus one hostile binary. Each valid item must match the
// equivalent /v1/rewrite output; the hostile item must fail alone, as a
// classified per-item status, without sinking the batch.
func TestBatchEndToEnd(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bin := kernelELF(t)
	items := []batchItem{
		{ID: "a", Query: clusterQuery, Binary: bin},
		{ID: "b", Query: "match=call&action=empty", Binary: bin},
		{ID: "bad", Query: clusterQuery, Binary: []byte("not an ELF at all")},
	}
	resp, results := batchLines(t, ts.URL, items, "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	if len(results) != len(items) {
		t.Fatalf("got %d result lines, want %d", len(results), len(items))
	}

	byID := map[string]batchResult{}
	for _, r := range results {
		byID[r.ID] = r
	}
	for _, id := range []string{"a", "b"} {
		r, ok := byID[id]
		if !ok {
			t.Fatalf("no result line for item %q", id)
		}
		if r.Status != http.StatusOK {
			t.Fatalf("item %q: status %d (%s)", id, r.Status, r.Error)
		}
		if len(r.Output) == 0 {
			t.Fatalf("item %q: empty output", id)
		}
	}
	if !bytes.Equal(byID["a"].Output, directRewrite(t, bin, "jcc & short")) {
		t.Fatal("batch item output differs from a direct rewrite")
	}
	bad := byID["bad"]
	if bad.Status < 400 || bad.Status >= 500 {
		t.Fatalf("hostile item: status %d, want a 4xx", bad.Status)
	}
	if bad.Error == "" {
		t.Fatal("hostile item: no error message")
	}

	if got := metricValue(t, srv.Handler(), "e9served_batches_total"); got != 1 {
		t.Fatalf("batches_total = %g, want 1", got)
	}
}

func directRewrite(t *testing.T, bin []byte, match string) []byte {
	t.Helper()
	sel, err := e9patch.SelectMatch(match)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e9patch.Rewrite(bin, e9patch.Config{Select: sel})
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}

// TestBatchWantPlan checks the plan-delta artifact inside a batch: a
// want=plan item returns the encoded plan, and applying it client-side
// reproduces the binary a want=binary item returns.
func TestBatchWantPlan(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bin := kernelELF(t)
	_, results := batchLines(t, ts.URL, []batchItem{
		{ID: "bin", Query: clusterQuery, Binary: bin},
		{ID: "plan", Query: clusterQuery, Binary: bin, Want: "plan"},
	}, "")
	byID := map[string]batchResult{}
	for _, r := range results {
		byID[r.ID] = r
	}
	pr := byID["plan"]
	if pr.Status != http.StatusOK {
		t.Fatalf("plan item: status %d (%s)", pr.Status, pr.Error)
	}
	if len(pr.Plan) == 0 || len(pr.Output) != 0 {
		t.Fatalf("plan item: want plan-only payload, got %d plan / %d output bytes", len(pr.Plan), len(pr.Output))
	}
	p, err := e9patch.DecodePlan(pr.Plan)
	if err != nil {
		t.Fatalf("batch plan does not decode: %v", err)
	}
	applied, err := e9patch.ApplyTo(context.Background(), nil, bin, p)
	if err != nil {
		t.Fatalf("client-side apply: %v", err)
	}
	if !bytes.Equal(applied.Output, byID["bin"].Output) {
		t.Fatal("applied batch plan differs from the batch binary result")
	}
}

// TestBatchWantPlanAfterPlanEviction: once the plan tier has evicted a
// key the result tier still holds, a want=plan item must replan (one
// plan miss, no result-tier detour) and answer 200 with a plan that
// reproduces the batch binary, as /v1/rewrite's plan-delta does.
func TestBatchWantPlanAfterPlanEviction(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bin := kernelELF(t)
	_, results := batchLines(t, ts.URL, []batchItem{{ID: "bin", Query: clusterQuery, Binary: bin}}, "")
	if len(results) != 1 || results[0].Status != http.StatusOK {
		t.Fatalf("banking item: %+v", results)
	}
	batchBin := results[0].Output
	srv.plans = newLRUCache[*planEntry](srv.cfg.PlanCacheBytes)
	misses := metricValue(t, srv.Handler(), "e9served_plan_cache_misses_total")

	_, results = batchLines(t, ts.URL, []batchItem{{ID: "plan", Query: clusterQuery, Binary: bin, Want: "plan"}}, "")
	pr := results[0]
	if pr.Status != http.StatusOK {
		t.Fatalf("plan item after plan eviction: status %d (%s)", pr.Status, pr.Error)
	}
	p, err := e9patch.DecodePlan(pr.Plan)
	if err != nil {
		t.Fatalf("batch plan does not decode: %v", err)
	}
	applied, err := e9patch.ApplyTo(context.Background(), nil, bin, p)
	if err != nil {
		t.Fatalf("client-side apply: %v", err)
	}
	if !bytes.Equal(applied.Output, batchBin) {
		t.Fatal("applied batch plan differs from the batch binary result")
	}
	if got := metricValue(t, srv.Handler(), "e9served_plan_cache_misses_total") - misses; got != 1 {
		t.Fatalf("plan_cache_misses_total rose by %g, want 1", got)
	}
}

// TestBatchValidation covers the request-shape rejections: item count
// and body caps, unknown artifacts, empty batches, bad specs.
func TestBatchValidation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 4, MaxBodyBytes: 1 << 20})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	item := `{"id":"x","query":"match=jcc","binary":"AAAA"}`

	if resp := post(""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
	if resp := post(strings.Repeat(item+"\n", maxBatchItems+1)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("too many items: %d, want 413", resp.StatusCode)
	}
	if resp := post(`{"id":"x","query":"match=jcc","binary":"AAAA","want":"carrier-pigeon"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown want: %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"id":"x","query":"match=%GG","binary":"AAAA"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparsable query: %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"id":"x","query":"spec=on+nonsense+)(+do+what","binary":"AAAA"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad spec program: %d, want 422", resp.StatusCode)
	}
	if resp := post(`{"id":"x","query":"match=jcc"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing binary: %d, want 400", resp.StatusCode)
	}
	// A hostile match fails the whole batch as a bad spec, in under a
	// second, before any item is queued.
	bin := kernelELF(t)
	for name, expr := range hostileMatches {
		line, err := json.Marshal(batchItem{ID: "x", Query: url.Values{"match": {expr}}.Encode(), Binary: bin})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if resp := post(string(line)); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("hostile match %s: %d, want 422", name, resp.StatusCode)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("hostile match %s: rejection took %v, want under a second", name, took)
		}
	}
	if got := metricValue(t, srv.Handler(), "e9served_rewrites_total"); got != 0 {
		t.Errorf("rewrites_total = %g, want 0", got)
	}
}

// TestBatchTenantQuota pins the per-tenant fan-out bound: with two
// workers, a tenant's quota is one slot, so its items run strictly one at a time even when
// the pool has room, while a second tenant proceeds in parallel.
func TestBatchTenantQuota(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 16})
	var (
		mu      sync.Mutex
		cur     = map[string]int{}
		peak    = map[string]int{}
		release = make(chan struct{})
	)
	srv.rewrite = func(ctx context.Context, binary []byte, spec *Spec) (*e9patch.Result, []byte, error) {
		tenant := string(binary[:1]) // first byte names the tenant in this stub
		mu.Lock()
		cur[tenant]++
		if cur[tenant] > peak[tenant] {
			peak[tenant] = cur[tenant]
		}
		mu.Unlock()
		<-release
		mu.Lock()
		cur[tenant]--
		mu.Unlock()
		return &e9patch.Result{Output: []byte("out")}, nil, nil
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	items := func(tenant string) []batchItem {
		out := make([]batchItem, 3)
		for i := range out {
			out[i] = batchItem{
				ID:     fmt.Sprintf("%s%d", tenant, i),
				Query:  "match=jcc",
				Binary: []byte(fmt.Sprintf("%s-binary-%d", tenant, i)),
			}
		}
		return out
	}
	var wg sync.WaitGroup
	results := make([][]batchResult, 2)
	for i, tenant := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, results[i] = batchLines(t, ts.URL, items(tenant), tenant)
		}()
	}
	// Let both tenants reach their steady state, then drain.
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, tenant := range []string{"a", "b"} {
		for _, r := range results[i] {
			if r.Status != http.StatusOK {
				t.Fatalf("tenant %s item %s: status %d (%s)", tenant, r.ID, r.Status, r.Error)
			}
		}
		if peak[tenant] > 1 {
			t.Fatalf("tenant %s peak concurrency %d, want <= 1", tenant, peak[tenant])
		}
	}
	// Both tenants were in flight at once: the quota is per tenant, not
	// global (peak 1 each with 3 items only drains in time if so).
	if peak["a"] == 0 || peak["b"] == 0 {
		t.Fatal("expected both tenants to run")
	}
}

// clusterHostileCorpus loads the checked-in hostile ELF corpus (shared
// with the top-level fuzz targets).
func clusterHostileCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "hostile", "*.bin"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("hostile corpus missing: %v (%d files)", err, len(paths))
	}
	corpus := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		corpus[filepath.Base(p)] = data
	}
	return corpus
}

// TestClusterChaosBatch is the clustercheck gate: a 3-node cluster runs
// a batch mixing valid binaries with the whole hostile corpus, one node
// is killed while the batch is in flight, and every item must still
// come back with a non-5xx status — hostile items as classified 4xx,
// valid items as 200s byte-identical to direct rewrites.
func TestClusterChaosBatch(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	bin := kernelELF(t)

	// Warm the cluster so results exist on their owners: items asked of
	// their owners during the batch then meet warm tiers there, and the
	// killed node takes real shard state down with it.
	for i := range tc.nodes {
		resp, out := tc.post(t, i, clusterQuery, bin, false, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup via node %d: %d %s", i, resp.StatusCode, out)
		}
	}

	var items []batchItem
	valid := map[string]bool{}
	for i := 0; i < 6; i++ {
		// Distinct specs shard the keys across different owners.
		id := fmt.Sprintf("valid-%d", i)
		items = append(items, batchItem{
			ID:     id,
			Query:  fmt.Sprintf("match=jcc+%%26+short&action=empty&granularity=%d", i+1),
			Binary: bin,
		})
		valid[id] = true
	}
	for name, data := range clusterHostileCorpus(t) {
		items = append(items, batchItem{ID: "hostile-" + name, Query: clusterQuery, Binary: data})
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, it := range items {
		enc.Encode(it)
	}
	req, _ := http.NewRequest(http.MethodPost, tc.urls[0]+"/v1/batch", &buf)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}

	// Kill a node the moment the first result streams back: the rest of
	// the batch runs against a degraded cluster.
	dec := json.NewDecoder(resp.Body)
	var results []batchResult
	killed := false
	for dec.More() {
		var r batchResult
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line %d: %v", len(results), err)
		}
		results = append(results, r)
		if !killed {
			tc.https[2].Close()
			killed = true
		}
	}
	if !killed {
		t.Fatal("batch produced no results before the kill point")
	}
	if len(results) != len(items) {
		t.Fatalf("got %d results, want %d (batch must complete despite the node kill)", len(results), len(items))
	}
	// The containment property: nothing — not the node kill, not any
	// hostile binary — may surface as a 5xx. Hostile items land as
	// classified 4xx or (for the tolerated variants) succeed; the exact
	// split is the top-level hostile suite's concern, not this test's.
	for _, r := range results {
		if r.Status >= 500 {
			t.Errorf("item %s: status %d — a node kill must never surface as a 5xx (%s)", r.ID, r.Status, r.Error)
		}
		if valid[r.ID] && r.Status != http.StatusOK {
			t.Errorf("valid item %s: status %d (%s)", r.ID, r.Status, r.Error)
		}
	}
}
