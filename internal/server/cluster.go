package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"e9patch/internal/cluster"
)

// routedHeader marks a request a peer has already sent on to its key's
// owner (fromOwner). A node receiving it always handles the request
// itself — even if its ring disagrees about ownership (peer lists can
// drift for a moment during a rolling restart) — so a misconfigured
// cluster degrades to one extra hop, never a loop.
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

// ownerSlack is what the owner hop may take beyond the rewrite budget
// the owner spends: the binary crosses the wire both ways.
const ownerSlack = 10 * time.Second

// ownerError is an owner's answer other than 200, passed on to the
// client with the owner's status, message and Retry-After.
type ownerError struct {
	status     int
	msg        string
	retryAfter string
}

func (e *ownerError) Error() string { return e.msg }

// fromOwner is the owner tier: it asks the node that owns a.key for the
// answer, over the owner's own /v1/rewrite, so the owner's tiers and
// cache shard serve it, and returns it without banking anything here. A
// failure the owner answered is an ownerError. False means the caller
// must serve the request locally: this node owns the key, the request
// was already routed once, or the owner is down (the local fallback
// that keeps a dead peer from taking its key range's availability with
// it).
//
// The owner's response is read whole before anything is answered, so an
// owner dying mid-response still falls back to a clean local rewrite
// instead of a truncated body.
func (s *Server) fromOwner(ctx context.Context, a ask) (answer, bool, error) {
	if !s.clustered() || a.header.Get(routedHeader) != "" {
		return answer{}, false, nil
	}
	owner, local := s.owner(a.key)
	if local || !s.health.Up(owner) {
		return answer{}, false, nil
	}
	hopCtx := ctx
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		hopCtx, cancel = context.WithTimeout(ctx, s.cfg.Timeout+ownerSlack)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(hopCtx, http.MethodPost,
		owner+"/v1/rewrite?"+a.query, bytes.NewReader(a.body))
	if err != nil {
		return answer{}, false, nil
	}
	for name, v := range a.header {
		req.Header[name] = v
	}
	// The owner answers the artifact this request asks for, unencoded:
	// this node negotiates its own client's encoding when it serves it.
	req.Header.Del("Accept")
	if a.plan {
		req.Header.Set("Accept", cluster.PlanContentType)
	}
	req.Header.Set("Accept-Encoding", "identity")
	req.Header.Set(routedHeader, "1")

	resp, err := s.fwd.Do(req)
	var data []byte
	if err == nil {
		data, err = cluster.ReadSized(resp.Body, resp.ContentLength)
		resp.Body.Close()
	}
	if err != nil {
		if ctx.Err() != nil {
			return answer{}, true, ctx.Err() // this request's client left
		}
		s.health.MarkDown(owner)
		s.metrics.inc(forwardFallbackTotal)
		return answer{}, false, nil
	}
	s.health.MarkUp(owner)
	s.metrics.inc(forwardedTotal)

	ans := answer{cache: resp.Header.Get("X-E9-Cache"), node: owner}
	switch {
	case resp.StatusCode != http.StatusOK:
		return ans, true, &ownerError{status: resp.StatusCode,
			msg: strings.TrimSuffix(string(data), "\n"), retryAfter: resp.Header.Get("Retry-After")}
	case a.plan:
		ans.plan = data
	default:
		ans.entry = &cacheEntry{out: data, statsJSON: []byte(resp.Header.Get("X-E9-Stats"))}
	}
	return ans, true, nil
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
