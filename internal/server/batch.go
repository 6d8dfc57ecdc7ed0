package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"e9patch"
	"e9patch/internal/e9err"
	"e9patch/internal/work"
)

// batchItem is one line of a /v1/batch request body (NDJSON): a binary
// plus the same parameters /v1/rewrite takes, carried as a URL query
// string so the two endpoints cannot drift apart on spec semantics or
// cache-key folding.
type batchItem struct {
	// ID labels the item in the streamed results; it is the client's
	// correlation handle and is echoed verbatim.
	ID string `json:"id"`
	// Query is the /v1/rewrite parameter string, e.g.
	// "match=jcc+%26+short&action=empty&disasm=superset".
	Query string `json:"query"`
	// Binary is the input ELF, base64 (standard encoding).
	Binary []byte `json:"binary"`
	// Want selects the response artifact: "binary" (default) or "plan"
	// (plan-delta: the serialized PatchPlan, applied client-side).
	Want string `json:"want"`
}

// batchResult is one line of the streamed NDJSON response body.
// Results stream in completion order, not submission order — ID is the
// join key. Status carries the same HTTP code the equivalent
// /v1/rewrite call would have answered.
type batchResult struct {
	ID     string          `json:"id"`
	Status int             `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Stats  json.RawMessage `json:"stats,omitempty"`
	Output []byte          `json:"output,omitempty"`
	Plan   []byte          `json:"plan,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// handleBatch serves POST /v1/batch: one job rewriting N binaries in a
// single request — the fleet-shaped workload (a distro rebuild, a
// Chrome-sized package set) that would otherwise cost N round trips
// and N queue slots. Items fan out through the server-wide worker
// budget (internal/work leases, so a batch degrades toward sequential
// under load instead of oversubscribing), each tenant's in-flight
// items are capped by BatchTenantConcurrency, and results stream back
// as NDJSON the moment each item finishes.
//
// Per-item failures are per-item result lines, never a failed batch: a
// hostile binary in position 3 must not cost the other N-1 rewrites.
// Cluster note: items are never forwarded whole — a non-owned item
// tries a peer plan-fetch first, so only kilobytes cross the wire, and
// a dead owner degrades to a local rewrite (the chaos gate in
// clustercheck asserts a mid-batch node kill completes with zero 5xx).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.AddInflight(1)
	code := "200"
	defer func() {
		s.metrics.AddInflight(-1)
		s.metrics.IncRequest(code)
		s.metrics.Observe(time.Since(start).Seconds())
	}()
	fail := func(status int, msg string) {
		code = fmt.Sprint(status)
		http.Error(w, msg, status)
	}

	tenant := r.Header.Get("X-E9-Tenant")

	// Parse and validate every item before doing any work: a malformed
	// batch is a 4xx, not a half-executed job.
	type parsed struct {
		item batchItem
		spec *Spec
		key  string
	}
	var items []parsed
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes))
	for {
		var it batchItem
		if err := dec.Decode(&it); err == io.EOF {
			break
		} else if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				fail(http.StatusRequestEntityTooLarge,
					fmt.Sprintf("batch exceeds %d bytes", s.cfg.MaxBatchBytes))
				return
			}
			fail(http.StatusBadRequest, fmt.Sprintf("batch item %d: %v", len(items), err))
			return
		}
		if len(items) >= s.cfg.MaxBatchItems {
			fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch exceeds %d items", s.cfg.MaxBatchItems))
			return
		}
		if len(it.Binary) == 0 {
			fail(http.StatusBadRequest, fmt.Sprintf("batch item %q: empty binary", it.ID))
			return
		}
		if int64(len(it.Binary)) > s.cfg.MaxBodyBytes {
			fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch item %q: binary exceeds %d bytes", it.ID, s.cfg.MaxBodyBytes))
			return
		}
		switch it.Want {
		case "", "binary", "plan":
		default:
			fail(http.StatusBadRequest, fmt.Sprintf("batch item %q: want must be binary or plan, got %q", it.ID, it.Want))
			return
		}
		spec, err := batchSpec(it.Query)
		if err != nil {
			// Spec-language programs keep their 422 classification; any
			// other parameter problem is a malformed item.
			if errors.Is(err, e9patch.ErrBadSpec) {
				s.metrics.IncRejected(e9err.ReasonBadSpec)
				fail(http.StatusUnprocessableEntity, fmt.Sprintf("batch item %q: %v", it.ID, err))
				return
			}
			fail(http.StatusBadRequest, fmt.Sprintf("batch item %q: %v", it.ID, err))
			return
		}
		items = append(items, parsed{item: it, spec: spec, key: cacheKey(it.Binary, spec)})
	}
	if len(items) == 0 {
		fail(http.StatusBadRequest, "empty batch: POST NDJSON items {id, query, binary}")
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var outMu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(res batchResult) {
		outMu.Lock()
		defer outMu.Unlock()
		enc.Encode(res)
		if flusher != nil {
			flusher.Flush()
		}
	}

	ctx := r.Context()
	width := min(s.cfg.Workers, len(items))
	work.ForEach(s.shards, width, len(items), func(i int) {
		it := items[i]
		res := s.runBatchItem(ctx, tenant, it.item, it.spec, it.key)
		outcome := "ok"
		if res.Status != http.StatusOK {
			outcome = "error"
		}
		s.metrics.IncBatchItem(outcome)
		emit(res)
	})
	s.metrics.IncBatch()
}

// batchSpec parses an item's query string through the same parser as
// /v1/rewrite, so parameter semantics — including the disasm and
// payload cache-key folding — cannot diverge between the endpoints.
func batchSpec(query string) (*Spec, error) {
	u, err := url.Parse("/v1/rewrite?" + query)
	if err != nil {
		return nil, err
	}
	return parseSpec(&http.Request{URL: u, Header: http.Header{}})
}

// runBatchItem resolves one batch item under the tenant quota and maps
// the outcome onto a result line carrying /v1/rewrite's status codes.
func (s *Server) runBatchItem(ctx context.Context, tenant string, it batchItem, spec *Spec, key string) batchResult {
	out := batchResult{ID: it.ID}
	if err := s.tenants.acquire(ctx, tenant); err != nil {
		out.Status = 499
		out.Error = "batch abandoned before the item ran"
		return out
	}
	defer s.tenants.release(tenant)

	if it.Want == "plan" {
		data, status, err := s.resolvePlan(ctx, key, it.Binary, spec)
		if err != nil {
			return batchFailure(out, err)
		}
		out.Status = http.StatusOK
		out.Cache = status
		out.Plan = data
		return out
	}

	e, status, err := s.resolveEntry(ctx, key, it.Binary, spec)
	if err != nil {
		return batchFailure(out, err)
	}
	out.Status = http.StatusOK
	out.Cache = status
	out.Stats = json.RawMessage(e.statsJSON)
	out.Output = e.out
	return out
}

// batchFailure maps a classified pipeline failure onto an item result,
// mirroring failClassified's status mapping for the HTTP endpoints.
func batchFailure(out batchResult, err error) batchResult {
	status := http.StatusUnprocessableEntity
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499
	case errors.Is(err, e9patch.ErrResourceLimit):
		var ee *e9patch.Error
		if errors.As(err, &ee) {
			switch ee.Reason {
			case e9err.ReasonInputTooLarge, e9err.ReasonTextTooLarge, e9err.ReasonMessageTooLarge:
				status = http.StatusRequestEntityTooLarge
			case e9err.ReasonPhaseDeadline:
				status = http.StatusGatewayTimeout
			}
		}
	case errors.Is(err, e9patch.ErrInternal):
		status = http.StatusInternalServerError
	}
	out.Status = status
	out.Error = err.Error()
	return out
}

// resolveEntry obtains the rewrite result for one key through the full
// tier ladder — result cache, local plan cache, peer plan-fetch,
// singleflight full rewrite — running the rewrite inline on the
// calling goroutine (batch items already hold a bounded fan-out slot;
// queueing them through the pool again could deadlock a full queue
// against its own items).
func (s *Server) resolveEntry(ctx context.Context, key string, body []byte, spec *Spec) (*cacheEntry, string, error) {
	if e, ok := s.cache.get(key); ok {
		s.metrics.IncHit()
		return e, "hit", nil
	}
	s.metrics.IncMiss()
	if pe, ok := s.plans.get(key); ok {
		if e, err := s.rematerialize(ctx, body, pe); err == nil {
			s.metrics.IncPlanHit()
			s.cache.put(key, e)
			return e, "plan", nil
		}
	}
	s.metrics.IncPlanMiss()
	if e, ok := s.peerRematerialize(ctx, key, body); ok {
		return e, "peer-plan", nil
	}
	e, shared, err := s.flights.do(ctx, key, s.cfg.Timeout,
		func(jobCtx context.Context, finish func(*cacheEntry, error)) error {
			s.metrics.IncRewrite()
			start := time.Now()
			res, rerr := s.runRewrite(jobCtx, key, body, spec)
			s.observeRewrite(time.Since(start))
			if rerr != nil {
				finish(nil, rerr)
				return nil
			}
			ce := entryFromResult(res)
			s.cache.put(key, ce)
			finish(ce, nil)
			return nil
		})
	status := "miss"
	if shared {
		s.metrics.IncCoalesced()
		status = "coalesced"
	}
	return e, status, err
}

// resolvePlan is resolveEntry's plan-delta sibling: it returns the
// encoded plan for one key, fetching from the owner or planning
// locally as needed.
func (s *Server) resolvePlan(ctx context.Context, key string, body []byte, spec *Spec) ([]byte, string, error) {
	if pe, ok := s.plans.get(key); ok {
		s.metrics.IncPlanHit()
		return pe.data, "plan", nil
	}
	s.metrics.IncPlanMiss()
	if data, _, ok := s.peerPlan(ctx, key); ok {
		s.metrics.IncPeerPlanHit()
		s.plans.put(key, &planEntry{data: data})
		return data, "peer-plan", nil
	}
	_, status, err := s.resolveEntry(ctx, key, body, spec)
	if err != nil {
		return nil, "", err
	}
	pe, ok := s.plans.get(key)
	if !ok {
		return nil, "", e9err.Internal("server", "no plan banked for key after rewrite")
	}
	return pe.data, status, nil
}

// tenantLimiter caps concurrent batch items per tenant. Slots are
// tracked per live tenant only — the map entry exists while acquirers
// (running or waiting) reference it, so hostile tenant-name churn
// cannot grow it without holding work in flight.
type tenantLimiter struct {
	mu    sync.Mutex
	max   int
	slots map[string]*tenantSlot
}

type tenantSlot struct {
	sem  chan struct{}
	refs int
}

func newTenantLimiter(max int) *tenantLimiter {
	if max <= 0 {
		max = 1
	}
	return &tenantLimiter{max: max, slots: make(map[string]*tenantSlot)}
}

// acquire blocks until the tenant has a free slot or ctx is done.
func (t *tenantLimiter) acquire(ctx context.Context, tenant string) error {
	t.mu.Lock()
	slot, ok := t.slots[tenant]
	if !ok {
		slot = &tenantSlot{sem: make(chan struct{}, t.max)}
		t.slots[tenant] = slot
	}
	slot.refs++
	t.mu.Unlock()

	select {
	case slot.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		t.drop(tenant, slot)
		return ctx.Err()
	}
}

// release frees the caller's slot.
func (t *tenantLimiter) release(tenant string) {
	t.mu.Lock()
	slot := t.slots[tenant]
	t.mu.Unlock()
	if slot == nil {
		return // release without acquire: a bug, but never a hang
	}
	<-slot.sem
	t.drop(tenant, slot)
}

// drop decrements a slot's refcount and deletes idle slots.
func (t *tenantLimiter) drop(tenant string, slot *tenantSlot) {
	t.mu.Lock()
	slot.refs--
	if slot.refs <= 0 && t.slots[tenant] == slot {
		delete(t.slots, tenant)
	}
	t.mu.Unlock()
}
