package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"e9patch"
	"e9patch/internal/e9err"
)

// statusClientGone labels a request whose client left before the
// answer (nginx's 499): there is no one to write to, only a metric.
const statusClientGone = 499

// exchange is one accounted request to a rewrite endpoint.
type exchange struct {
	w    http.ResponseWriter
	code int // the requests_total label
}

// fail answers status with msg; statusClientGone only labels the
// request.
func (x *exchange) fail(status int, msg string) {
	x.code = status
	if status != statusClientGone {
		http.Error(x.w, msg, status)
	}
}

// accounted wraps a rewrite endpoint in the request accounting they all
// share: the in-flight gauge while it runs, then the status-code label
// and the latency sample.
func (s *Server) accounted(h func(x *exchange, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.AddInflight(1)
		x := &exchange{w: w, code: http.StatusOK}
		defer func() {
			s.metrics.AddInflight(-1)
			s.metrics.incLabel(s.metrics.requests, strconv.Itoa(x.code))
			s.metrics.Observe(time.Since(start).Seconds())
		}()
		h(x, r)
	}
}

// ask is one request to the tier ladder.
type ask struct {
	key  string
	body []byte
	spec *Spec
	// plan asks for the encoded PatchPlan (a plan-delta) instead of the
	// rewritten binary.
	plan bool
	// query is the raw /v1 query and header the /v1/rewrite request's
	// headers (nil for a batch item): what the owner hop sends on.
	query  string
	header http.Header
}

// answer is what the ladder resolved a request to: the rewritten binary
// or the encoded plan (a rewrite's flight answers both, and the caller
// serves the one it asked for), the X-E9-Cache value naming the tier
// that answered, and the owner node that answered it, or "" for this
// node.
type answer struct {
	entry *cacheEntry
	plan  []byte
	cache string
	node  string
}

// resolve walks the tier ladder for one request, cheapest tier first
// (DESIGN.md §12 has the table of flows, values and counters):
//
//	result cache  binary requests only     "hit"
//	owner         clustered, non-owned key the owner's value
//	local plan                             "plan"
//	rewrite       singleflight, admitted   "miss" or "coalesced"
//
// A local result hit beats the network hop, so the result tier comes
// before the owner; a plan request wants bytes that live in the plan
// tier and skips the result tier.
func (s *Server) resolve(ctx context.Context, a ask) (answer, error) {
	if !a.plan {
		if e, ok := s.cache.get(a.key); ok {
			s.metrics.inc(cacheHitsTotal)
			return answer{entry: e, cache: "hit"}, nil
		}
	}
	if ans, ok, err := s.fromOwner(ctx, a); ok {
		return ans, err
	}
	if !a.plan {
		s.metrics.inc(cacheMissesTotal)
	}
	// A banked plan turns a repeat into a decision-free rematerialize.
	// One that no longer applies (corrupt or stale) is a miss, and the
	// rewrite below replaces it.
	if pe, ok := s.plans.get(a.key); ok {
		if ans, ok := s.fromPlan(ctx, a, pe.data); ok {
			s.metrics.inc(planCacheHitsTotal)
			return ans, nil
		}
	}
	s.metrics.inc(planCacheMissesTotal)

	ans, shared, err := s.flights.do(ctx, a.key, s.cfg.Timeout,
		func(jobCtx context.Context, finish func(answer, error)) error {
			return s.admit(jobCtx, a, finish)
		})
	ans.cache = "miss"
	if shared {
		s.metrics.inc(coalescedTotal)
		ans.cache = "coalesced"
	}
	return ans, err
}

// fromPlan answers a from an encoded plan: as it is for a plan request,
// rematerialized into the result cache for a binary one. False means
// the plan does not apply to a.body.
//
// Every plan reaching here was banked by an earlier rewrite job of this
// process and is input-bound, which ApplyTrusted verifies, so skipping
// the disassembly-universe re-derivation costs no safety and most of
// the rematerialization time on large binaries.
func (s *Server) fromPlan(ctx context.Context, a ask, data []byte) (answer, bool) {
	if a.plan {
		return answer{plan: data, cache: "plan"}, true
	}
	p, err := e9patch.DecodePlan(data)
	if err != nil {
		return answer{}, false
	}
	res, err := e9patch.ApplyTrustedContext(ctx, a.body, p)
	if err != nil {
		return answer{}, false
	}
	e := entryFromResult(res)
	s.cache.put(a.key, e)
	return answer{entry: e, cache: "plan"}, true
}

// errQueueFull fails a flight that admit turned away; classify maps it
// to 429, and /v1/rewrite adds Retry-After.
var errQueueFull = errors.New("server: work queue full")

// admit starts the job of a flight this request leads, /v1/rewrite and
// batch item alike. With QueueLen jobs already waiting for a lease, or
// the server closed, it fails the flight with errQueueFull. Otherwise
// the job runs on its own goroutine, which waits for one lease of
// s.shards and holds it for the whole rewrite, so running jobs and
// their shard helpers share one budget of Workers. A job whose context
// ends before a lease frees still finishes its flight, with the
// context's error.
func (s *Server) admit(ctx context.Context, a ask, finish func(answer, error)) error {
	s.admitMu.Lock()
	if s.closed || s.waiting >= s.cfg.QueueLen {
		s.admitMu.Unlock()
		s.metrics.inc(queueFullTotal)
		return errQueueFull
	}
	s.waiting++
	s.jobs.Add(1)
	s.admitMu.Unlock()
	go func() {
		defer s.jobs.Done()
		// Last-resort containment: a panic that escapes runRewrite's
		// per-job recovery (server code around it) must not take the
		// process down. Coalesced waiters of such a job time out rather
		// than hang forever; the per-job boundary keeps this path cold.
		defer func() {
			if v := recover(); v != nil {
				s.metrics.inc(panicRecoveredTotal)
				s.cfg.Logf("e9served: recovered job panic: %v", v)
			}
		}()
		err := s.shards.Acquire(ctx)
		s.admitMu.Lock()
		s.waiting--
		s.admitMu.Unlock()
		if err != nil {
			finish(answer{}, err)
			return
		}
		defer s.shards.Release()
		finish(s.runRewrite(ctx, a))
	}()
	return nil
}

// queueDepth reports the jobs admitted but still waiting for a lease.
func (s *Server) queueDepth() int {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.waiting
}

// runRewrite is a flight's job: the full rewrite of a.body, its result
// banked in the result cache and its plan in the plan cache, behind the
// per-job recovery boundary. The answer carries both, so every waiter
// reads its own from the flight. A panic in the rewrite path (including
// test RewriteFuncs that bypass the library's own boundaries) becomes
// an ErrInternal result like any other failure, so coalesced waiters
// are released instead of timing out. Panics already contained by the
// library surface as classified errors with a recorded stack; both
// shapes count toward panic_recovered_total.
func (s *Server) runRewrite(ctx context.Context, a ask) (_ answer, err error) {
	if err := ctx.Err(); err != nil {
		return answer{}, err // every waiter left while the job waited
	}
	s.metrics.inc(rewritesTotal)
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			err = e9err.FromPanic("server", v)
		}
		s.observeRewrite(time.Since(start))
		var ee *e9patch.Error
		if errors.As(err, &ee) && ee.Recovered() {
			s.metrics.inc(panicRecoveredTotal)
			s.cfg.Logf("e9served: panic contained during rewrite: %v\n%s", ee, ee.Stack)
		}
	}()
	res, plan, err := s.rewrite(ctx, a.body, a.spec)
	if err != nil {
		return answer{}, err
	}
	e := entryFromResult(res)
	s.cache.put(a.key, e)
	s.plans.put(a.key, &planEntry{data: plan})
	return answer{entry: e, plan: plan}, nil
}

// classify maps a failure onto the status a client sees and the message
// it may read, for every endpoint and batch item alike; an owner's
// failure is passed on as the owner classified it. It counts limit
// and spec rejections in rejected_total and logs internal failures,
// whose detail stays out of the message.
func (s *Server) classify(err error) (int, string) {
	var oe *ownerError
	switch {
	case errors.As(err, &oe):
		return oe.status, oe.msg
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests, "work queue full; retry later"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, fmt.Sprintf("rewrite exceeded the %s budget", s.cfg.Timeout)
	case errors.Is(err, context.Canceled):
		return statusClientGone, err.Error()
	case errors.Is(err, e9patch.ErrBadSpec):
		// The body carries the 1-based line:column; the metric label is
		// the bare class constant, since the position-bearing reason
		// would explode cardinality.
		s.metrics.incLabel(s.metrics.rejected, e9err.ReasonBadSpec)
		return http.StatusUnprocessableEntity, err.Error()
	case errors.Is(err, e9patch.ErrResourceLimit):
		reason := "unknown"
		var ee *e9patch.Error
		if errors.As(err, &ee) && ee.Reason != "" {
			reason = ee.Reason
		}
		s.metrics.incLabel(s.metrics.rejected, reason)
		switch reason {
		case e9err.ReasonInputTooLarge, e9err.ReasonTextTooLarge, e9err.ReasonMessageTooLarge:
			return http.StatusRequestEntityTooLarge, err.Error()
		case e9err.ReasonPhaseDeadline:
			return http.StatusGatewayTimeout, err.Error()
		}
		return http.StatusUnprocessableEntity, err.Error()
	case errors.Is(err, e9patch.ErrInternal):
		// Our bug, not the client's: the detail goes to the log.
		s.cfg.Logf("e9served: internal rewrite failure: %v", err)
		return http.StatusInternalServerError, "internal error"
	}
	// Everything else the pipeline classifies as the client's input:
	// malformed or unsupported binaries, plans, specs and protocol
	// streams.
	return http.StatusUnprocessableEntity, err.Error()
}

// classifySpec maps a request parameter that does not parse: a
// spec-language program that fails to parse or typecheck is
// semantically invalid (classify's 422), anything else is malformed.
func (s *Server) classifySpec(err error) (int, string) {
	if errors.Is(err, e9patch.ErrBadSpec) {
		return s.classify(err)
	}
	return http.StatusBadRequest, err.Error()
}
