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

	"e9patch/internal/work"
)

// maxBatchItems bounds the items of one /v1/batch request, whose body
// may be four times Config.MaxBodyBytes.
const maxBatchItems = 256

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
// Chrome-sized package set) that would otherwise cost N round trips.
// Items fan out on up to Workers goroutines that hold
// no lease; each item's cold rewrite is admitted like a /v1/rewrite
// job, so it waits for one of the server-wide worker leases or answers
// 429 when the queue is full. Each tenant's in-flight items are capped
// at half the workers (at least one), so one tenant's fleet-wide batch
// cannot starve the others, and results stream back as NDJSON the
// moment each item finishes.
//
// Per-item failures are per-item result lines, never a failed batch: a
// hostile binary in position 3 must not cost the other N-1 rewrites.
// Cluster note: the batch is never forwarded whole, but each item whose
// key a peer owns is asked of that owner like a /v1/rewrite, so its
// binary crosses the wire and the owner's answer comes back; a dead
// owner degrades to a local rewrite (the chaos gate in clustercheck
// asserts a mid-batch node kill completes with zero 5xx).
func (s *Server) handleBatch(x *exchange, r *http.Request) {
	tenant := r.Header.Get("X-E9-Tenant")

	// Parse and validate every item before doing any work: a malformed
	// batch is a 4xx, not a half-executed job.
	var ids []string
	var items []ask
	maxBytes := 4 * s.cfg.MaxBodyBytes
	dec := json.NewDecoder(http.MaxBytesReader(x.w, r.Body, maxBytes))
	for {
		var it batchItem
		if err := dec.Decode(&it); err == io.EOF {
			break
		} else if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				x.fail(http.StatusRequestEntityTooLarge,
					fmt.Sprintf("batch exceeds %d bytes", maxBytes))
				return
			}
			x.fail(http.StatusBadRequest, fmt.Sprintf("batch item %d: %v", len(items), err))
			return
		}
		if len(items) >= maxBatchItems {
			x.fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch exceeds %d items", maxBatchItems))
			return
		}
		if len(it.Binary) == 0 {
			x.fail(http.StatusBadRequest, fmt.Sprintf("batch item %q: empty binary", it.ID))
			return
		}
		if int64(len(it.Binary)) > s.cfg.MaxBodyBytes {
			x.fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch item %q: binary exceeds %d bytes", it.ID, s.cfg.MaxBodyBytes))
			return
		}
		switch it.Want {
		case "", "binary", "plan":
		default:
			x.fail(http.StatusBadRequest, fmt.Sprintf("batch item %q: want must be binary or plan, got %q", it.ID, it.Want))
			return
		}
		spec, err := batchSpec(it.Query)
		if err != nil {
			status, msg := s.classifySpec(err)
			x.fail(status, fmt.Sprintf("batch item %q: %s", it.ID, msg))
			return
		}
		ids = append(ids, it.ID)
		items = append(items, ask{key: cacheKey(it.Binary, spec), body: it.Binary, spec: spec,
			plan: it.Want == "plan", query: it.Query})
	}
	if len(items) == 0 {
		x.fail(http.StatusBadRequest, "empty batch: POST NDJSON items {id, query, binary}")
		return
	}

	x.w.Header().Set("Content-Type", "application/x-ndjson")
	x.w.WriteHeader(http.StatusOK)
	flusher, _ := x.w.(http.Flusher)
	var outMu sync.Mutex
	enc := json.NewEncoder(x.w)
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
	work.ForEach(nil, width, len(items), func(i int) {
		res := s.runBatchItem(ctx, tenant, ids[i], items[i])
		outcome := "ok"
		if res.Status != http.StatusOK {
			outcome = "error"
		}
		s.metrics.incLabel(s.metrics.batchItems, outcome)
		emit(res)
	})
	s.metrics.inc(batchesTotal)
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

// runBatchItem resolves one batch item under the tenant quota through
// the tier ladder and carries /v1/rewrite's status codes into the
// result line.
func (s *Server) runBatchItem(ctx context.Context, tenant, id string, a ask) batchResult {
	out := batchResult{ID: id}
	if err := s.tenants.acquire(ctx, tenant); err != nil {
		out.Status = statusClientGone
		out.Error = "batch abandoned before the item ran"
		return out
	}
	defer s.tenants.release(tenant)

	ans, err := s.resolve(ctx, a)
	if err != nil {
		out.Status, out.Error = s.classify(err)
		return out
	}
	out.Status, out.Cache = http.StatusOK, ans.cache
	if a.plan {
		out.Plan = ans.plan
	} else {
		out.Stats, out.Output = json.RawMessage(ans.entry.statsJSON), ans.entry.out
	}
	return out
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
