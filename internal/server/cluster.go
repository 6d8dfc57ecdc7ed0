package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"net/http"
	"strings"

	"e9patch"
	"e9patch/internal/cluster"
)

// routedHeader marks a request that has already been forwarded once by
// a peer's front-door router. A node receiving it always handles the
// request itself — even if its ring disagrees about ownership (peer
// lists can drift for a moment during a rolling restart) — so a
// misconfigured cluster degrades to one extra hop, never a loop.
const routedHeader = "X-E9-Routed"

// clustered reports whether this node is part of a multi-node cluster.
func (s *Server) clustered() bool { return s.ring != nil }

// owner returns the peer that owns key and whether that is this node.
// Single-node servers own everything.
func (s *Server) owner(key string) (string, bool) {
	if !s.clustered() {
		return "", true
	}
	o := s.ring.Owner(key)
	return o, o == s.cfg.Cluster.Self
}

// handlePlanFetch serves GET /internal/v1/plan/{key}: the encoded
// PatchPlan from the local plan cache, or 404 when this node holds
// none. It deliberately never computes a plan on demand — the endpoint
// sits on peers' latency paths, and a miss here is answered by the
// caller's own (pool-bounded) rewrite, not by unbounded work on ours.
func (s *Server) handlePlanFetch(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		http.Error(w, "malformed cache key", http.StatusBadRequest)
		return
	}
	pe, ok := s.plans.get(key)
	if !ok {
		http.Error(w, "no plan for key", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", cluster.PlanContentType)
	w.Header().Set("Content-Length", fmt.Sprint(len(pe.data)))
	w.Write(pe.data)
}

// validCacheKey checks the canonical key shape (sha256hex "-"
// sha256hex) so the internal endpoint cannot be probed with arbitrary
// strings.
func validCacheKey(key string) bool {
	a, b, ok := strings.Cut(key, "-")
	if !ok || len(a) != 64 || len(b) != 64 {
		return false
	}
	for _, part := range []string{a, b} {
		for i := 0; i < len(part); i++ {
			c := part[i]
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return false
			}
		}
	}
	return true
}

// KeyOwner reports which cluster node owns the cache key of a
// /v1/rewrite request with the given body and raw query string — the
// routing probe used by benchmarks and operational tooling. On a
// single-node server it returns the empty string (every key is local).
func (s *Server) KeyOwner(body []byte, query string) (string, error) {
	spec, err := batchSpec(query)
	if err != nil {
		return "", err
	}
	owner, _ := s.owner(cacheKey(body, spec))
	return owner, nil
}

// tryForward routes a request for a key owned by another node to that
// node, relaying its response verbatim and its status into x. False
// means the caller must serve the request locally — either this node
// owns the key, the request was already routed once, or the owner is
// down (the local fallback that keeps a dead peer from taking its key
// range's availability with it).
//
// The owner's response is buffered before anything is written to our
// client, so an owner dying mid-response still falls back to a clean
// local rewrite instead of a truncated body.
func (s *Server) tryForward(x *exchange, r *http.Request, body []byte, key string) bool {
	if !s.clustered() || r.Header.Get(routedHeader) != "" {
		return false
	}
	owner, local := s.owner(key)
	if local || !s.health.Up(owner) {
		return false
	}

	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		// The owner runs the full rewrite; give the hop the rewrite budget
		// plus slack rather than the short peer-fetch timeout.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout+5*s.cfg.Cluster.FetchTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		owner+r.URL.Path+"?"+r.URL.RawQuery, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header = r.Header.Clone()
	req.Header.Set(routedHeader, "1")
	req.ContentLength = int64(len(body))

	resp, err := s.fwd.Do(req)
	if err != nil {
		s.health.MarkDown(owner)
		s.metrics.inc(forwardFallbackTotal)
		return false
	}
	defer resp.Body.Close()
	relayed, err := cluster.ReadSized(resp.Body, resp.ContentLength)
	if err != nil {
		s.health.MarkDown(owner)
		s.metrics.inc(forwardFallbackTotal)
		return false
	}
	s.health.MarkUp(owner)
	s.metrics.inc(forwardedTotal)

	h := x.w.Header()
	for _, name := range []string{"Content-Type", "X-E9-Stats", "X-E9-Cache", "X-E9-Disasm", "Retry-After"} {
		if v := resp.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	h.Set("X-E9-Node", owner)
	h.Set("Content-Length", fmt.Sprint(len(relayed)))
	x.code = resp.StatusCode
	x.w.WriteHeader(resp.StatusCode)
	x.w.Write(relayed)
	return true
}

// peerPlan fetches the encoded plan for key from its owner, when that
// is a reachable peer other than this node, returning both the wire
// bytes (for re-banking) and the decoded, validated plan (so callers
// never pay a second decode of a multi-megabyte plan).
func (s *Server) peerPlan(ctx context.Context, key string) ([]byte, *e9patch.PatchPlan, bool) {
	if !s.clustered() {
		return nil, nil, false
	}
	owner, local := s.owner(key)
	if local {
		return nil, nil, false
	}
	if !s.health.Up(owner) {
		s.metrics.inc(peerPlanMissesTotal)
		return nil, nil, false
	}
	data, err := s.peers.FetchPlan(ctx, owner, key)
	if err != nil {
		s.metrics.inc(peerPlanMissesTotal)
		return nil, nil, false
	}
	p, err := e9patch.DecodePlan(data)
	if err != nil {
		s.metrics.inc(peerPlanMissesTotal)
		return nil, nil, false
	}
	return data, p, true
}

// accepts reports whether the request's header lists value, parameters
// aside: Accept: application/x-e9-plan asks for a plan-delta response
// (the serialized PatchPlan instead of the rewritten binary, applied
// client-side, cutting egress from ~binary-size to ~plan-size), and
// Accept-Encoding: gzip allows a gzip-coded one.
func accepts(r *http.Request, header, value string) bool {
	for _, part := range strings.Split(r.Header.Get(header), ",") {
		v, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(v) == value {
			return true
		}
	}
	return false
}

// servePlan writes a plan-delta response body. When the client accepts
// gzip the plan is compressed on the wire. The binary plan is already a
// thirteenth of the JSON it replaced, so deflate has less to take:
// trampoline code and jump opcodes repeat, displacements do not, and a
// branch-dense plan gzips to about two thirds of its size, half of what
// the JSON gzipped to (TestPlanDeltaGzip records the numbers and holds
// the result to a tenth of the full response).
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, data []byte, cacheStatus string) {
	s.metrics.inc(planDeltaTotal)
	h := w.Header()
	h.Set("Content-Type", cluster.PlanContentType)
	h.Set("X-E9-Cache", cacheStatus)
	if accepts(r, "Accept-Encoding", "gzip") {
		h.Set("Content-Encoding", "gzip")
		w.WriteHeader(http.StatusOK)
		zw := gzip.NewWriter(w)
		zw.Write(data)
		zw.Close()
		return
	}
	h.Set("Content-Length", fmt.Sprint(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}
