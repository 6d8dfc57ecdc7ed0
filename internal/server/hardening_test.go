package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"e9patch"
	"e9patch/internal/cluster"
	"e9patch/internal/x86"
)

// postBin POSTs bin to url and returns the status code and body.
func postBin(t *testing.T, url string, bin []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestWorkerSurvivesPanickingRewrite kills a job with a deliberate
// panic and verifies the containment contract: the request answers 500
// with a generic body (no panic detail leaked), panic_recovered_total
// increments, and the one lease comes back to serve the next request. A
// batch item whose rewrite panics is held to the same contract.
func TestWorkerSurvivesPanickingRewrite(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 8, Logf: t.Logf})
	defer srv.Close()
	var calls atomic.Int32
	srv.rewrite = func(ctx context.Context, bin []byte, spec *Spec) (*e9patch.Result, []byte, error) {
		if calls.Add(1)%2 == 1 {
			panic("deliberate test panic: " + spec.Match)
		}
		return &e9patch.Result{Output: []byte("patched")}, nil, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/rewrite?match=jcc"

	status, body := postBin(t, url, []byte("bin"))
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d, want 500 (body %q)", status, body)
	}
	if strings.Contains(body, "deliberate test panic") {
		t.Fatalf("500 body leaks internal detail: %q", body)
	}
	if got := metricValue(t, srv.Handler(), "e9served_panic_recovered_total"); got != 1 {
		t.Fatalf("panic_recovered_total = %g, want 1", got)
	}

	status, body = postBin(t, url, []byte("bin"))
	if status != http.StatusOK || body != "patched" {
		t.Fatalf("request after panic: status %d body %q, want 200 %q", status, body, "patched")
	}

	_, results := batchLines(t, ts.URL, []batchItem{{ID: "p", Query: "match=jcc", Binary: []byte("batch-bin")}}, "")
	if r := results[0]; r.Status != http.StatusInternalServerError || strings.Contains(r.Error, "deliberate test panic") {
		t.Fatalf("panicking batch item: status %d error %q, want 500 without the panic text", r.Status, r.Error)
	}
	if got := metricValue(t, srv.Handler(), "e9served_panic_recovered_total"); got != 2 {
		t.Fatalf("panic_recovered_total = %g after the batch item, want 2", got)
	}
}

// TestPanickingSelectorContained drives the real pipeline with a
// selector that panics: the library's recovery boundary converts it to
// a classified internal error, the server maps it to a generic 500,
// and the service keeps serving rewrites afterwards.
func TestPanickingSelectorContained(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 8, Logf: t.Logf})
	defer srv.Close()
	var calls atomic.Int32
	srv.rewrite = func(ctx context.Context, bin []byte, spec *Spec) (*e9patch.Result, []byte, error) {
		sel := e9patch.SelectJumps
		if calls.Add(1) == 1 {
			sel = func(insts []x86.Loc) []int { panic("selector boom") }
		}
		res, err := e9patch.RewriteTo(ctx, nil, bin, e9patch.Config{Select: sel})
		return res, nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/rewrite?match=jcc"
	bin := kernelELF(t)

	status, body := postBin(t, url, bin)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking selector: status %d, want 500 (body %q)", status, body)
	}
	if strings.Contains(body, "selector boom") {
		t.Fatalf("500 body leaks internal detail: %q", body)
	}
	if got := metricValue(t, srv.Handler(), "e9served_panic_recovered_total"); got != 1 {
		t.Fatalf("panic_recovered_total = %g, want 1", got)
	}

	if status, body := postBin(t, url, bin); status != http.StatusOK {
		t.Fatalf("request after contained panic: status %d (body %q), want 200", status, body)
	}
}

// TestLimitRejections maps resource-limit violations to their HTTP
// statuses and per-reason rejection metrics.
func TestLimitRejections(t *testing.T) {
	bin := kernelELF(t)

	srv := New(Config{Workers: 1, QueueLen: 8, Logf: t.Logf,
		Limits: e9patch.Limits{MaxTextBytes: 16}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, body := postBin(t, ts.URL+"/v1/rewrite?match=jcc", bin)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("text over limit: status %d (body %q), want 413", status, body)
	}
	if got := metricValue(t, srv.Handler(), `e9served_rejected_total{reason="text-too-large"}`); got != 1 {
		t.Fatalf("rejected_total{text-too-large} = %g, want 1", got)
	}

	// A batch item over the same limit answers the same status and is
	// counted the same way.
	srvB := New(Config{Workers: 1, QueueLen: 8, Logf: t.Logf,
		Limits: e9patch.Limits{MaxTextBytes: 16}})
	defer srvB.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	_, results := batchLines(t, tsB.URL, []batchItem{{ID: "big", Query: "match=jcc", Binary: bin}}, "")
	if r := results[0]; r.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch item text over limit: status %d (%s), want 413", r.Status, r.Error)
	}
	if got := metricValue(t, srvB.Handler(), `e9served_rejected_total{reason="text-too-large"}`); got != 1 {
		t.Fatalf("batch: rejected_total{text-too-large} = %g, want 1", got)
	}

	srv2 := New(Config{Workers: 1, QueueLen: 8, Logf: t.Logf,
		Limits: e9patch.Limits{MaxPatchSites: 1}})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	status, body = postBin(t, ts2.URL+"/v1/rewrite?match=jcc", bin)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("sites over limit: status %d (body %q), want 422", status, body)
	}
	if got := metricValue(t, srv2.Handler(), `e9served_rejected_total{reason="too-many-sites"}`); got != 1 {
		t.Fatalf("rejected_total{too-many-sites} = %g, want 1", got)
	}
}

// TestGranularityClamped rejects the client-controlled block-size
// parameter outside its sane range before any allocation happens.
func TestGranularityClamped(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 8, Logf: t.Logf})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, g := range []string{"0", "-2", "1000000"} {
		status, body := postBin(t, ts.URL+"/v1/rewrite?match=jcc&granularity="+g, []byte("x"))
		if status != http.StatusBadRequest {
			t.Errorf("granularity=%s: status %d (body %q), want 400", g, status, body)
		}
	}
	status, _ := postBin(t, ts.URL+"/v1/rewrite?match=jcc&granularity=-1", kernelELF(t))
	if status != http.StatusOK {
		t.Errorf("granularity=-1 (grouping disabled): status %d, want 200", status)
	}
}

// hostileMatches are match expressions past the spec language's caps:
// 64 KiB of input and nesting depth 200.
var hostileMatches = map[string]string{
	"size":  strings.Repeat("!", 100_000) + "jcc",
	"depth": strings.Repeat("(", 300) + "jcc" + strings.Repeat(")", 300),
}

// TestHostileMatchRejected: a hostile match is a bad spec, rejected
// before any rewrite is queued — 422 in under a second, bad-spec
// counted, e9served_rewrites_total unchanged.
func TestHostileMatchRejected(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 8, Logf: t.Logf})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bin := kernelELF(t)
	for name, expr := range hostileMatches {
		start := time.Now()
		status, body := postBin(t, ts.URL+"/v1/rewrite?"+url.Values{"match": {expr}}.Encode(), bin)
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: rejection took %v, want under a second", name, took)
		}
		if status != http.StatusUnprocessableEntity || !strings.Contains(body, "line 1:") {
			t.Errorf("%s: status %d (body %.80q), want 422 with a position", name, status, body)
		}
	}
	if got := metricValue(t, srv.Handler(), `e9served_rejected_total{reason="bad-spec"}`); got != float64(len(hostileMatches)) {
		t.Errorf("rejected_total{bad-spec} = %g, want %d", got, len(hostileMatches))
	}
	if got := metricValue(t, srv.Handler(), "e9served_rewrites_total"); got != 0 {
		t.Errorf("rewrites_total = %g, want 0", got)
	}
}

// TestRetryAfterFromQueueDepth checks the backpressure estimate: queue
// depth times the rolling mean rewrite duration spread over the
// workers, clamped to [1, 30] seconds.
func TestRetryAfterFromQueueDepth(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8, Logf: t.Logf})
	defer srv.Close()

	if got := srv.retryAfter(); got != "1" {
		t.Fatalf("no samples yet: Retry-After %q, want \"1\"", got)
	}
	srv.observeRewrite(4 * time.Second)      // first sample seeds the mean
	if got := srv.retryAfter(); got != "2" { // ceil(4*1/2)
		t.Fatalf("mean 4s, empty queue, 2 workers: Retry-After %q, want \"2\"", got)
	}
	srv.observeRewrite(4 * time.Second) // EWMA of equal samples is stable
	if got := srv.retryAfter(); got != "2" {
		t.Fatalf("stable mean: Retry-After %q, want \"2\"", got)
	}
	srv.durMu.Lock()
	srv.meanRewriteSec = 1000 // pathological backlog clamps at the cap
	srv.durMu.Unlock()
	if got := srv.retryAfter(); got != "30" {
		t.Fatalf("huge mean: Retry-After %q, want \"30\"", got)
	}
}

// TestStalledUploadReservesLittle is the hostile read: a client declares
// a 1 GB body, sends ten bytes and stalls. The declared length sizes the
// body buffer only as a hint, so while the handler waits the heap has
// grown by about cluster.ReadReserve, not by MaxBodyBytes; when the
// client goes away the request is a 499 like any abandoned upload.
func TestStalledUploadReservesLittle(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 1, MaxBodyBytes: 256 << 20})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var before, stalled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/rewrite?match=jcc HTTP/1.1\r\nHost: e9\r\nContent-Length: 1000000000\r\n\r\n0123456789"); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, srv.Handler(), "e9served_inflight", 1)
	time.Sleep(20 * time.Millisecond) // inflight is counted just before the read starts
	runtime.ReadMemStats(&stalled)
	if grown := int64(stalled.HeapAlloc) - int64(before.HeapAlloc); grown > 4*cluster.ReadReserve {
		t.Errorf("heap grew by %d bytes while a 10-byte upload stalled, want about %d", grown, cluster.ReadReserve)
	}
	conn.Close()
	waitMetric(t, srv.Handler(), `e9served_requests_total{code="499"}`, 1)
}

// TestServerNoGoroutineLeak drives one request of every kind — a
// /v1/rewrite binary, a plan-delta, a batch and a batch whose client
// hangs up mid-stream — then shuts both servers down, requires the
// goroutine count back at its baseline within 2 s, and every one of the
// Workers leases back in the pool: a job path that forgets Release
// leaves one short.
func TestServerNoGoroutineLeak(t *testing.T) {
	bin := kernelELF(t)
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	base := runtime.NumGoroutine()

	srv := New(Config{Workers: 1, QueueLen: 8, Logf: t.Logf})
	// Rewrites at a granularity above 1 wait for the gate, so the
	// abandoned batch below is still running when its client hangs up.
	gate := make(chan struct{})
	rewrite := srv.rewrite
	srv.rewrite = func(ctx context.Context, bin []byte, spec *Spec) (*e9patch.Result, []byte, error) {
		if spec.Granularity > 1 {
			<-gate
		}
		return rewrite(ctx, bin, spec)
	}
	ts := httptest.NewServer(srv.Handler())
	ndjson := func(items ...batchItem) []byte {
		var buf bytes.Buffer
		for _, it := range items {
			if err := json.NewEncoder(&buf).Encode(it); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	send := func(ctx context.Context, path string, body []byte, accept string) *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		return resp
	}
	for _, c := range []struct {
		path   string
		body   []byte
		accept string
	}{
		{"/v1/rewrite?match=jcc", bin, ""},
		{"/v1/rewrite?match=call", bin, cluster.PlanContentType},
		{"/v1/batch", ndjson(batchItem{ID: "a", Query: "match=jcc+%26+short", Binary: bin}), ""},
	} {
		resp := send(context.Background(), c.path, c.body, c.accept)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// The abandoned batch: a result hit streams the first line, the
	// gated items are still running when the client hangs up.
	items := []batchItem{{ID: "hit", Query: "match=jcc", Binary: bin}}
	for g := 2; g <= 5; g++ {
		items = append(items, batchItem{ID: fmt.Sprint(g), Query: fmt.Sprintf("match=jcc&granularity=%d", g), Binary: bin})
	}
	ctx, cancel := context.WithCancel(context.Background())
	resp := send(ctx, "/v1/batch", ndjson(items...), "")
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	close(gate)

	ts.Close()
	srv.Close()
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 2 s after shutdown, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
	leaseCtx, leaseCancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer leaseCancel()
	for i := 0; i < srv.cfg.Workers; i++ {
		if err := srv.shards.Acquire(leaseCtx); err != nil {
			t.Fatalf("lease %d of %d not returned after shutdown: %v", i+1, srv.cfg.Workers, err)
		}
	}
}
