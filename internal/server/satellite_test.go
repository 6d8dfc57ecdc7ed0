package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e9patch"
	"e9patch/internal/cluster"
)

// TestRetryAfterClampRace (hardening sweep): the Retry-After estimate
// must stay inside [1, 30] seconds no matter what the EWMA has been
// fed, under concurrent observe/estimate traffic. Run with -race: the
// mean is shared mutable state on the 429 path.
func TestRetryAfterClampRace(t *testing.T) {
	srv := New(Config{Workers: 4, QueueLen: 4})
	defer srv.Close()

	if got := srv.retryAfter(); got != "1" {
		t.Fatalf("retryAfter before any rewrite = %q, want the 1s floor", got)
	}

	// Hostile samples: negative and zero (clock steps), sub-microsecond,
	// and absurdly large. The filter must drop the first kind and the
	// clamp must contain the rest.
	samples := []time.Duration{
		-time.Second, 0, time.Nanosecond, time.Millisecond,
		1000 * time.Hour, 3 * time.Second, -time.Hour,
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				srv.observeRewrite(samples[(seed+i)%len(samples)])
			}
		}(g)
	}
	var violations atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := strconv.Atoi(srv.retryAfter())
				if err != nil || v < 1 || v > 30 {
					violations.Add(1)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatal("retryAfter left the [1,30] clamp under concurrent observations")
	}

	srv.observeRewrite(1000 * time.Hour) // saturate the mean
	if got := srv.retryAfter(); got != "30" {
		t.Fatalf("retryAfter with saturated mean = %q, want the 30s ceiling", got)
	}
}

// TestCrossEndpointCacheIsolation (hardening sweep): the cache-key
// audit. Verified here: (1) /v1 folds the disasm mode into the key, so
// two requests differing only in recovery mode never share an entry;
// (2) /v1 folds the payload hash for spec-program requests; (3) those
// distinct entries leave the first one intact, so a repeat is a hit
// with the original bytes.
func TestCrossEndpointCacheIsolation(t *testing.T) {
	srv := New(Config{Workers: 2, QueueLen: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	elf := kernelELF(t)

	post := func(path string, hdr map[string]string, body []byte) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, out)
		}
		return resp, out
	}
	rewrites := func() float64 { return metricValue(t, srv.Handler(), "e9served_rewrites_total") }

	// (1) disasm folds into the /v1 key.
	resp1, out1 := post("/v1/rewrite?match=jcc+%26+short&action=empty", nil, elf)
	if resp1.Header.Get("X-E9-Cache") != "miss" {
		t.Fatalf("first v1: cache %q, want miss", resp1.Header.Get("X-E9-Cache"))
	}
	resp2, _ := post("/v1/rewrite?match=jcc+%26+short&action=empty&disasm=superset", nil, elf)
	if resp2.Header.Get("X-E9-Cache") != "miss" {
		t.Fatal("v1 with a different disasm mode reused the linear-mode entry: disasm is not folded into the key")
	}
	if rewrites() != 2 {
		t.Fatalf("rewrites_total = %g after two distinct-mode requests, want 2", rewrites())
	}

	// (2) the payload folds into the key for spec-program requests.
	spec := base64.StdEncoding.EncodeToString([]byte("match jcc\npatch empty\n"))
	payloadA := base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0x90}, 64))
	payloadB := base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0xCC}, 64))
	rA, _ := post("/v1/rewrite", map[string]string{"X-E9-Spec": spec, "X-E9-Payload": payloadA}, elf)
	if rA.Header.Get("X-E9-Cache") != "miss" {
		t.Fatalf("payload A: cache %q, want miss", rA.Header.Get("X-E9-Cache"))
	}
	rB, _ := post("/v1/rewrite", map[string]string{"X-E9-Spec": spec, "X-E9-Payload": payloadB}, elf)
	if rB.Header.Get("X-E9-Cache") != "miss" {
		t.Fatal("v1 with a different payload reused the first payload's entry: payload is not folded into the key")
	}

	// (3) the original v1 entry is still intact: a repeat is a hit with
	// the original bytes, and no new rewrite runs.
	after := rewrites()
	resp4, out4 := post("/v1/rewrite?match=jcc+%26+short&action=empty", nil, elf)
	if resp4.Header.Get("X-E9-Cache") != "hit" {
		t.Fatalf("v1 repeat: cache %q, want hit", resp4.Header.Get("X-E9-Cache"))
	}
	if !bytes.Equal(out4, out1) {
		t.Fatal("v1 cache entry was altered by the requests with other keys")
	}
	if rewrites() != after {
		t.Fatal("v1 repeat triggered a rewrite despite the cached entry")
	}
}

// TestLastWaiterCancelDuringPeerFetch (hardening sweep) interleaves the
// two cancellation machines: request B leads a singleflight rewrite for
// key K and disconnects mid-rewrite (the refcount must cancel the job),
// while request A for the same K is parked inside a peer plan-fetch to
// K's owner. A's fetch failing must fall through to a *fresh* flight —
// not the cancelled one — and complete normally.
func TestLastWaiterCancelDuringPeerFetch(t *testing.T) {
	elf := kernelELF(t)

	// A stub owner whose plan endpoint answers the first probe 404
	// (alive, no plan) and parks every later fetch until released.
	var fetches atomic.Int64
	releaseFetch := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fetches.Add(1) > 1 {
			select {
			case <-releaseFetch:
			case <-r.Context().Done():
			}
		}
		http.Error(w, "no plan for key", http.StatusNotFound)
	}))
	defer stub.Close()

	swap := &swapHandler{}
	self := httptest.NewServer(swap)
	defer self.Close()

	srv := New(Config{
		Workers:  2,
		QueueLen: 8,
		Cluster: cluster.Config{
			Self:         self.URL,
			Peers:        []string{self.URL, stub.URL},
			FetchTimeout: 30 * time.Second, // the test releases fetches itself
			Cooldown:     time.Millisecond,
		},
	})
	defer srv.Close()
	swap.set(srv.Handler())

	// Gate the first rewrite so B's flight is provably mid-rewrite when
	// its client disconnects; later rewrites run for real.
	real := srv.rewrite
	var calls atomic.Int64
	firstEntered := make(chan struct{})
	firstCancelled := make(chan error, 1)
	srv.rewrite = func(ctx context.Context, key string, binary []byte, spec *Spec) (*e9patch.Result, error) {
		if calls.Add(1) == 1 {
			close(firstEntered)
			<-ctx.Done() // must fire when the last waiter leaves
			firstCancelled <- ctx.Err()
			return nil, ctx.Err()
		}
		return real(ctx, key, binary, spec)
	}

	// Pick a query whose key the stub owns, so peer fetches really fire
	// (skip only perturbs the key, not this corpus binary's matches).
	query := ""
	for i := 0; i < 256; i++ {
		q := fmt.Sprintf("match=jcc+%%26+short&action=empty&skip=%d", i)
		spec, err := batchSpec(q)
		if err != nil {
			t.Fatal(err)
		}
		if srv.ring.Owner(cacheKey(elf, spec)) == stub.URL {
			query = q
			break
		}
	}
	if query == "" {
		t.Fatal("no skip value in 0..255 hashes to the stub peer") // p ~ 2^-256
	}

	doPost := func(ctx context.Context) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			self.URL+"/v1/rewrite?"+query, bytes.NewReader(elf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(routedHeader, "1") // force local handling
		return http.DefaultClient.Do(req)
	}

	// Request B: sails past the 404 probe into the gated flight.
	bCtx, bCancel := context.WithCancel(context.Background())
	bDone := make(chan error, 1)
	go func() {
		resp, err := doPost(bCtx)
		if err == nil {
			resp.Body.Close()
		}
		bDone <- err
	}()
	<-firstEntered

	// Request A: parks in the peer plan-fetch for the same key.
	aDone := make(chan struct {
		resp *http.Response
		body []byte
		err  error
	}, 1)
	go func() {
		resp, err := doPost(context.Background())
		var body []byte
		if err == nil {
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		aDone <- struct {
			resp *http.Response
			body []byte
			err  error
		}{resp, body, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for fetches.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fetches.Load() < 2 {
		t.Fatal("request A never reached the peer plan-fetch")
	}

	// B disconnects: it is the flight's only waiter (A is still inside
	// the fetch), so the refcount must cancel the rewrite context.
	bCancel()
	if err := <-bDone; err == nil {
		t.Fatal("request B completed despite its context being cancelled")
	}
	select {
	case err := <-firstCancelled:
		if err == nil {
			t.Fatal("flight context reported nil error after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("last-waiter disconnect did not cancel the in-flight rewrite")
	}

	// Release A's fetch: it comes back 404, falls through to a fresh
	// flight (the cancelled one must be off the map) and succeeds.
	close(releaseFetch)
	a := <-aDone
	if a.err != nil {
		t.Fatalf("request A: %v", a.err)
	}
	if a.resp.StatusCode != http.StatusOK {
		t.Fatalf("request A: %d %s (joined the cancelled flight?)", a.resp.StatusCode, a.body)
	}
	if got := a.resp.Header.Get("X-E9-Cache"); got != "miss" {
		t.Fatalf("request A cache status %q, want miss (fresh flight)", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("rewrite entered %d times, want 2 (cancelled + fresh)", calls.Load())
	}
}
