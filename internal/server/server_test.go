package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"e9patch"
	"e9patch/internal/rpc"
	"e9patch/internal/workload"
)

func init() { workload.KernelIters = 1500 }

// kernelELF builds a small corpus binary for requests.
func kernelELF(t *testing.T) []byte {
	t.Helper()
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	return prog.ELF
}

// metricValue scrapes one unlabelled (or fully-labelled) metric from
// the /metrics endpoint.
func metricValue(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	return 0
}

// waitMetric polls until the metric reaches want or the deadline hits.
func waitMetric(t *testing.T, h http.Handler, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if metricValue(t, h, name) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %g (last %g)", name, want, metricValue(t, h, name))
}

// TestRewriteEndToEnd verifies the plain service path: the served
// output is byte-identical to a direct library rewrite, stats arrive
// in the header, and a repeated request is a cache hit that triggers
// no second rewrite.
func TestRewriteEndToEnd(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bin := kernelELF(t)
	url := ts.URL + "/v1/rewrite?match=jcc+%26+short&action=empty"

	post := func() (*http.Response, []byte) {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(bin))
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

	resp, out := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("X-E9-Cache") != "miss" {
		t.Fatalf("first request cache status %q, want miss", resp.Header.Get("X-E9-Cache"))
	}

	sel, err := e9patch.SelectMatch("jcc & short")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e9patch.Rewrite(bin, e9patch.Config{Select: sel})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, direct.Output) {
		t.Fatal("served output differs from direct e9patch.Rewrite")
	}

	var st rewriteStats
	if err := json.Unmarshal([]byte(resp.Header.Get("X-E9-Stats")), &st); err != nil {
		t.Fatalf("stats header: %v", err)
	}
	if st.Total != direct.Stats.Total || st.Patched != direct.Stats.Patched() {
		t.Fatalf("stats header %+v does not match direct result %+v", st, direct.Stats)
	}

	resp2, out2 := post()
	if resp2.Header.Get("X-E9-Cache") != "hit" {
		t.Fatalf("second request cache status %q, want hit", resp2.Header.Get("X-E9-Cache"))
	}
	if !bytes.Equal(out2, out) {
		t.Fatal("cache hit returned different bytes")
	}
	if got := metricValue(t, srv.Handler(), "e9served_rewrites_total"); got != 1 {
		t.Fatalf("rewrites_total = %g after a hit, want 1", got)
	}
}

// TestV1CoversSessionMessages: every setting a JSON-RPC session can
// carry has a /v1/rewrite parameter. A session with options, a
// reserve and two patch messages (explicit addresses and a match)
// emits the same bytes as one /v1 request whose match is an addr=
// disjunction joined with the session's match expression.
func TestV1CoversSessionMessages(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	h := srv.Handler()
	bin := kernelELF(t)

	jcc, err := e9patch.SelectMatch("jcc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e9patch.Rewrite(bin, e9patch.Config{Select: jcc})
	if err != nil {
		t.Fatal(err)
	}
	var addrs, terms []string
	for _, loc := range res.Locations[:3] {
		addrs = append(addrs, fmt.Sprintf("%q", fmt.Sprintf("%#x", loc.Addr)))
		terms = append(terms, fmt.Sprintf("addr=%#x", loc.Addr))
	}

	session := fmt.Sprintf(`{"method":"option","params":{"granularity":2,"b0Fallback":true,"disasm":"superset","counter":"0x404000"}}
{"method":"reserve","params":{"ranges":[{"lo":"0x700000000000","hi":"0x700000010000"}]}}
{"method":"binary","params":{"data":%q}}
{"method":"patch","params":{"addrs":[%s]}}
{"method":"patch","params":{"match":"call"}}
{"method":"emit"}
`, base64.StdEncoding.EncodeToString(bin), strings.Join(addrs, ","))
	sess := rpc.NewSession()
	defer sess.Close()
	d := rpc.NewDecoder(strings.NewReader(session))
	for !sess.Done() {
		msg, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Handle(context.Background(), msg); err != nil {
			t.Fatalf("%s: %v", msg.Method, err)
		}
	}

	q := url.Values{
		"match":       {strings.Join(append(terms, "call"), " | ")},
		"action":      {"counter=0x404000"},
		"granularity": {"2"},
		"b0-fallback": {"true"},
		"disasm":      {"superset"},
		"reserve":     {"0x700000000000-0x700000010000"},
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/rewrite?"+q.Encode(), bytes.NewReader(bin)))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if !bytes.Equal(rr.Body.Bytes(), sess.Result().Output) {
		t.Fatalf("/v1 output (%d bytes) differs from the session's (%d bytes)",
			rr.Body.Len(), len(sess.Result().Output))
	}
}

// TestSingleflightCollapse is the load test from the acceptance
// criteria: 64 concurrent identical requests complete successfully
// with exactly one underlying rewrite, verified via /metrics.
func TestSingleflightCollapse(t *testing.T) {
	srv := New(Config{Workers: 4, QueueLen: 64})
	real := srv.rewrite
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	srv.rewrite = func(ctx context.Context, key string, bin []byte, spec *Spec) (*e9patch.Result, error) {
		started <- struct{}{}
		<-release
		return real(ctx, key, bin, spec)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxConnsPerHost = 0

	bin := kernelELF(t)
	url := ts.URL + "/v1/rewrite?match=jcc"

	const n = 64
	type reply struct {
		status int
		cache  string
		body   []byte
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(url, "application/octet-stream", bytes.NewReader(bin))
			if err != nil {
				t.Errorf("post: %v", err)
				replies <- reply{}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			replies <- reply{resp.StatusCode, resp.Header.Get("X-E9-Cache"), body}
		}()
	}

	// Hold the one real rewrite until every request has joined its
	// flight, so all 64 demonstrably overlap. The inflight gauge is not
	// enough: it counts a request from the handler's first line, and
	// one still short of the flight when the gate opens finds the
	// banked result or plan instead of coalescing.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.flights.mu.Lock()
		waiters := 0
		for _, f := range srv.flights.m {
			waiters += f.waiters
		}
		srv.flights.mu.Unlock()
		if waiters == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests joined the flight", waiters, n)
		}
	}
	if got := len(started); got != 1 {
		t.Fatalf("%d rewrites started while gated, want 1", got)
	}
	close(release)
	wg.Wait()
	close(replies)

	var first []byte
	for rp := range replies {
		if rp.status != http.StatusOK {
			t.Fatalf("status %d: %s", rp.status, rp.body)
		}
		if first == nil {
			first = rp.body
		} else if !bytes.Equal(first, rp.body) {
			t.Fatal("concurrent requests returned different outputs")
		}
	}

	h := srv.Handler()
	if got := metricValue(t, h, "e9served_rewrites_total"); got != 1 {
		t.Fatalf("rewrites_total = %g, want exactly 1", got)
	}
	if got := metricValue(t, h, "e9served_coalesced_total"); got != n-1 {
		t.Fatalf("coalesced_total = %g, want %d", got, n-1)
	}
	if got := metricValue(t, h, "e9served_cache_misses_total"); got != n {
		t.Fatalf("cache_misses_total = %g, want %d", got, n)
	}
	waitMetric(t, h, "e9served_inflight", 0)
}

// TestQueueOverflow verifies backpressure: with one busy worker and a
// one-slot queue, a third distinct request is rejected with 429 and a
// Retry-After header instead of queueing without bound.
func TestQueueOverflow(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.rewrite = func(ctx context.Context, key string, bin []byte, spec *Spec) (*e9patch.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &e9patch.Result{Output: append([]byte("out:"), bin...)}, nil
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string, ch chan<- *http.Response) {
		resp, err := http.Post(ts.URL+"/v1/rewrite?match=jcc", "application/octet-stream",
			strings.NewReader(body))
		if err != nil {
			t.Errorf("post %q: %v", body, err)
			ch <- nil
			return
		}
		ch <- resp
	}

	// R1 occupies the only worker...
	r1 := make(chan *http.Response, 1)
	go post("binary-one", r1)
	<-started
	// ...R2 occupies the only queue slot...
	r2 := make(chan *http.Response, 1)
	go post("binary-two", r2)
	waitMetric(t, srv.Handler(), "e9served_queue_depth", 1)

	// ...and R3 must be shed.
	r3 := make(chan *http.Response, 1)
	post("binary-three", r3)
	resp3 := <-r3
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if got := metricValue(t, srv.Handler(), "e9served_queue_full_total"); got != 1 {
		t.Fatalf("queue_full_total = %g, want 1", got)
	}

	close(release)
	for _, ch := range []chan *http.Response{r1, r2} {
		resp := <-ch
		if resp == nil {
			t.Fatal("request failed")
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestClientCancelAbortsJob verifies the cancellation plumbing: when
// the only waiting client disconnects, the job context is cancelled
// and the in-flight rewrite aborts (the pipeline-level abort-before-
// emit behaviour is pinned by TestRewriteContextCancelled in the root
// package).
func TestClientCancelAbortsJob(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 4})
	started := make(chan struct{})
	jobErr := make(chan error, 1)
	srv.rewrite = func(ctx context.Context, key string, bin []byte, spec *Spec) (*e9patch.Result, error) {
		close(started)
		<-ctx.Done() // simulate a long rewrite interrupted mid-pipeline
		jobErr <- ctx.Err()
		return nil, ctx.Err()
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/rewrite?match=jcc",
		strings.NewReader("some-binary"))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("unexpected success: %d", resp.StatusCode)
		}
		errc <- err
	}()

	<-started
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error %v, want context canceled", err)
	}
	select {
	case err := <-jobErr:
		if err != context.Canceled {
			t.Fatalf("job context error %v, want Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job context was never cancelled after the last waiter left")
	}
	waitMetric(t, srv.Handler(), "e9served_inflight", 0)
}

// TestRequestTimeout verifies the per-request budget maps to 504.
func TestRequestTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 4, Timeout: 30 * time.Millisecond})
	srv.rewrite = func(ctx context.Context, key string, bin []byte, spec *Spec) (*e9patch.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/rewrite?match=jcc", "application/octet-stream",
		strings.NewReader("some-binary"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestBatchAndRewriteShareWorkers pins the one lease budget: with two
// workers, six single-item batches under distinct tenants plus four
// cold /v1/rewrite requests never run more than two rewrites at once;
// the other eight wait for a lease.
func TestBatchAndRewriteShareWorkers(t *testing.T) {
	const workers, batches, singles = 2, 6, 4
	srv := New(Config{Workers: workers, QueueLen: 16})
	var (
		mu        sync.Mutex
		cur, peak int
		release   = make(chan struct{})
	)
	srv.rewrite = func(ctx context.Context, key string, bin []byte, spec *Spec) (*e9patch.Result, error) {
		mu.Lock()
		cur++
		peak = max(peak, cur)
		mu.Unlock()
		<-release
		mu.Lock()
		cur--
		mu.Unlock()
		return &e9patch.Result{Output: []byte("out")}, nil
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	do := func(req *http.Request, name string) {
		defer wg.Done()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || strings.Contains(string(body), `"status":429`) {
			t.Errorf("%s: status %d, body %.200s", name, resp.StatusCode, body)
		}
	}
	for i := 0; i < batches; i++ {
		line, err := json.Marshal(batchItem{ID: "x", Query: "match=jcc", Binary: []byte(fmt.Sprintf("batch-%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(line))
		req.Header.Set("X-E9-Tenant", fmt.Sprintf("tenant-%d", i))
		wg.Add(1)
		go do(req, fmt.Sprintf("batch %d", i))
	}
	for i := 0; i < singles; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/rewrite?match=jcc",
			strings.NewReader(fmt.Sprintf("single-%d", i)))
		wg.Add(1)
		go do(req, fmt.Sprintf("rewrite %d", i))
	}

	// Every job is admitted: running, or waiting for a lease.
	admitted := func() int {
		mu.Lock()
		defer mu.Unlock()
		return cur + int(metricValue(t, srv.Handler(), "e9served_queue_depth"))
	}
	for deadline := time.Now().Add(10 * time.Second); admitted() < batches+singles; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs running or waiting, want %d", admitted(), batches+singles)
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a job to start past the budget
	close(release)
	wg.Wait()
	if peak > workers {
		t.Fatalf("%d rewrites ran at once with Workers: %d", peak, workers)
	}
	if got := metricValue(t, srv.Handler(), "e9served_rewrites_total"); got != batches+singles {
		t.Fatalf("rewrites_total = %g, want %d", got, batches+singles)
	}
}

// TestBatchItemQueueFull: a batch item meets the same admission as a
// /v1/rewrite call. With the one worker busy and the one queue slot
// taken, its result line reads 429, and queue_full_total counts it.
func TestBatchItemQueueFull(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.rewrite = func(ctx context.Context, key string, bin []byte, spec *Spec) (*e9patch.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &e9patch.Result{Output: []byte("out")}, nil
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	releaseAll := sync.OnceFunc(func() { close(release) })
	defer releaseAll()

	post := func(body string, ch chan<- int) {
		resp, err := http.Post(ts.URL+"/v1/rewrite?match=jcc", "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Errorf("post %q: %v", body, err)
			ch <- 0
			return
		}
		resp.Body.Close()
		ch <- resp.StatusCode
	}
	codes := make(chan int, 2)
	go post("binary-one", codes) // runs...
	<-started
	go post("binary-two", codes) // ...and waits
	waitMetric(t, srv.Handler(), "e9served_queue_depth", 1)

	line, err := json.Marshal(batchItem{ID: "late", Query: "match=jcc", Binary: []byte("binary-three")})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second} // a batch item that waits instead hangs here
	resp, err := client.Post(ts.URL+"/v1/batch", "application/x-ndjson", bytes.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	var res batchResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || res.Status != http.StatusTooManyRequests {
		t.Fatalf("batch item result %+v (%v), want 429", res, err)
	}
	if got := metricValue(t, srv.Handler(), "e9served_queue_full_total"); got != 1 {
		t.Fatalf("queue_full_total = %g, want 1", got)
	}
	releaseAll()
	for range 2 {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("status %d, want 200", code)
		}
	}
}

// TestBadRequests covers the 400 surface.
func TestBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 1})
	defer srv.Close()
	h := srv.Handler()

	for _, tc := range []struct {
		name, target, body string
	}{
		{"missing match", "/v1/rewrite", "x"},
		{"bad bool", "/v1/rewrite?match=jcc&b0-fallback=maybe", "x"},
		{"bad reserve", "/v1/rewrite?match=jcc&reserve=12", "x"},
		{"empty body", "/v1/rewrite?match=jcc", ""},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", tc.target, strings.NewReader(tc.body)))
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rr.Code)
		}
	}

	// A malformed match or action is a bad spec, like a malformed spec=
	// program: 422 with the line:column of the offending token.
	for _, tc := range []struct{ name, target, pos string }{
		{"bad matcher", "/v1/rewrite?match=no-such-term%3D", "line 1:14"},
		{"bad action", "/v1/rewrite?match=jcc&action=bogus", "line 1:1"},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", tc.target, strings.NewReader("x")))
		if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), tc.pos) {
			t.Errorf("%s: status %d (%q), want 422 at %s", tc.name, rr.Code, rr.Body.String(), tc.pos)
		}
	}

	// Not an ELF at all: the rewrite itself fails → 422.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/rewrite?match=jcc", strings.NewReader("not an elf")))
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("non-ELF body: status %d, want 422", rr.Code)
	}

	// /v1/rewrite is the one rewrite protocol: the JSON-RPC session
	// endpoint is gone, and so is its counter.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v2/rewrite", strings.NewReader(`{"method":"emit"}`)))
	if rr.Code != http.StatusNotFound {
		t.Errorf("POST /v2/rewrite: status %d, want 404", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rr.Body.String(), "e9served_streams_total") {
		t.Error("/metrics still exports e9served_streams_total")
	}
}

// TestUnknownParameters: a query parameter parseSpec does not read is a
// 400 naming it, on /v1/rewrite and in a batch item alike. A misspelt
// one would otherwise answer a rewrite with the default, and so would
// one that has been removed (disable-t1).
func TestUnknownParameters(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 4})
	defer srv.Close()
	h := srv.Handler()
	bin := kernelELF(t)

	for _, param := range []string{"granularty=2", "disable-t1=true"} {
		name, _, _ := strings.Cut(param, "=")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/rewrite?match=jcc&"+param, bytes.NewReader(bin)))
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), name) {
			t.Errorf("/v1/rewrite with %s: status %d (%.120q), want 400 naming %s", param, rr.Code, rr.Body.String(), name)
		}

		line, err := json.Marshal(batchItem{ID: "x", Query: "match=jcc&" + param, Binary: bin})
		if err != nil {
			t.Fatal(err)
		}
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(line)))
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), name) {
			t.Errorf("batch item with %s: status %d (%.120q), want 400 naming %s", param, rr.Code, rr.Body.String(), name)
		}
	}
	if got := metricValue(t, h, "e9served_rewrites_total"); got != 0 {
		t.Errorf("rewrites_total = %g, want 0", got)
	}
}

// TestHealthzDrain verifies the drain flip for load balancers.
func TestHealthzDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueLen: 1})
	defer srv.Close()
	h := srv.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz %d, want 200", rr.Code)
	}
	srv.BeginDrain()
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", rr.Code)
	}
}

// TestSpecCanonical pins the cache-key canonicalisation: equivalent
// requests share a key, different effective configs do not.
func TestSpecCanonical(t *testing.T) {
	spec := func(target string, hdr map[string]string) *Spec {
		req := httptest.NewRequest("POST", target, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		s, err := parseSpec(req)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		return s
	}

	// Defaults spelled out == defaults omitted.
	a := spec("/v1/rewrite?match=jcc", nil)
	b := spec("/v1/rewrite?match=jcc&action=empty&granularity=1&skip=0&b0-fallback=0", nil)
	if a.Canonical() != b.Canonical() {
		t.Fatalf("equivalent specs canonicalise differently:\n%s\n%s", a.Canonical(), b.Canonical())
	}

	// Headers override query values.
	c := spec("/v1/rewrite?match=jcc&action=empty", map[string]string{"X-E9-Action": "lowfat"})
	if c.Action != "lowfat" {
		t.Fatalf("header override failed: action %q", c.Action)
	}
	if c.Canonical() == a.Canonical() {
		t.Fatal("different actions share a canonical key")
	}

	// Reserve ranges are parsed, sorted and keyed.
	d := spec("/v1/rewrite?match=jcc&reserve=0x3000-0x4000,0x1000-0x2000", nil)
	if len(d.Reserve) != 2 || d.Reserve[0] != [2]uint64{0x1000, 0x2000} {
		t.Fatalf("reserve parse/sort: %+v", d.Reserve)
	}
	e := spec("/v1/rewrite?match=jcc&reserve=0x1000-0x2000&reserve=0x3000-0x4000", nil)
	if d.Canonical() != e.Canonical() {
		t.Fatal("reserve ordering changed the canonical key")
	}

	// The tactic toggle is keyed.
	f := spec("/v1/rewrite?match=jcc&b0-fallback=true", nil)
	if f.Canonical() == a.Canonical() {
		t.Fatal("b0-fallback did not change the canonical key")
	}

	// Config materialises.
	if cfg := f.Config(); !cfg.Patch.B0Fallback || cfg.Select == nil {
		t.Fatal("spec.Config dropped fields")
	}
}

// TestCacheEviction exercises the byte-budgeted LRU.
func TestCacheEviction(t *testing.T) {
	c := newLRUCache[*cacheEntry](100)
	mk := func(n int) *cacheEntry {
		return &cacheEntry{out: bytes.Repeat([]byte("x"), n)}
	}
	c.put("a", mk(40))
	c.put("b", mk(40))
	if _, ok := c.get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", mk(40)) // 120 > 100: evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c should be present")
	}
	entries, used, evictions := c.stats()
	if entries != 2 || used != 80 || evictions != 1 {
		t.Fatalf("stats entries=%d used=%d evictions=%d, want 2/80/1", entries, used, evictions)
	}

	// Oversized entries are not cached at all.
	c.put("huge", mk(200))
	if _, ok := c.get("huge"); ok {
		t.Fatal("entry larger than the budget was cached")
	}

	// Refreshing an existing key adjusts the byte charge.
	c.put("a", mk(60))
	_, used, _ = c.stats()
	if used != 100 {
		t.Fatalf("used = %d after refresh, want 100", used)
	}
}

// TestPlanCacheRematerialize pins the second cache tier: with a result
// cache too small to hold anything, a repeat request must be answered
// by rematerializing the banked plan — identical body, no second
// rewrite execution, and the hit recorded in /metrics.
func TestPlanCacheRematerialize(t *testing.T) {
	// CacheBytes: 1 → every result entry is oversized and never cached,
	// so repeat requests can only be served from the plan tier.
	srv := New(Config{Workers: 2, QueueLen: 8, CacheBytes: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bin := kernelELF(t)
	url := ts.URL + "/v1/rewrite?match=jcc&action=empty"
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(bin))
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

	resp1, out1 := post()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, out1)
	}
	if got := resp1.Header.Get("X-E9-Cache"); got != "miss" {
		t.Fatalf("first request cache status %q, want miss", got)
	}

	resp2, out2 := post()
	if got := resp2.Header.Get("X-E9-Cache"); got != "plan" {
		t.Fatalf("second request cache status %q, want plan", got)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatal("rematerialized body differs from the original rewrite")
	}
	if resp2.Header.Get("X-E9-Stats") != resp1.Header.Get("X-E9-Stats") {
		t.Fatalf("stats header changed across rematerialization:\n%s\n%s",
			resp1.Header.Get("X-E9-Stats"), resp2.Header.Get("X-E9-Stats"))
	}

	h := srv.Handler()
	if got := metricValue(t, h, "e9served_rewrites_total"); got != 1 {
		t.Fatalf("rewrites_total = %g, want 1 (rematerialize must not replan)", got)
	}
	if got := metricValue(t, h, "e9served_plan_cache_hits_total"); got != 1 {
		t.Fatalf("plan_cache_hits_total = %g, want 1", got)
	}
	if got := metricValue(t, h, "e9served_plan_cache_entries"); got != 1 {
		t.Fatalf("plan_cache_entries = %g, want 1", got)
	}
	if got := metricValue(t, h, "e9served_plan_cache_bytes"); got <= 0 {
		t.Fatalf("plan_cache_bytes = %g, want > 0", got)
	}
}
