// Package server implements e9served, a concurrent rewrite service
// over the e9patch library: POST an ELF binary with a matcher
// expression and tactic switches, get the rewritten binary back.
//
// The service is shaped for sustained batch traffic rather than
// one-shot CLI use (the deployability bar of the broad rewriter
// evaluations — see DESIGN.md §7):
//
//   - a bounded worker pool over a bounded queue: overload returns
//     429 + Retry-After instead of unbounded goroutines (backpressure);
//   - a content-addressed result cache keyed by sha256(binary) +
//     canonicalised config, with byte-budgeted LRU eviction;
//   - singleflight coalescing: N concurrent identical requests trigger
//     exactly one rewrite;
//   - per-request timeouts and real cancellation, threaded through the
//     rewrite pipeline via e9patch.RewriteContext;
//   - hand-rolled Prometheus text metrics (the module stays
//     dependency-free).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"e9patch"
	"e9patch/internal/cluster"
	"e9patch/internal/e9err"
	"e9patch/internal/patch"
)

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueLen bounds the job queue (default 64); submissions beyond
	// it are rejected with 429.
	QueueLen int
	// CacheBytes is the result-cache byte budget (default 256 MiB).
	CacheBytes int64
	// PlanCacheBytes is the plan-cache byte budget (default 64 MiB).
	// Plans are kilobyte-scale, so this tier remembers far more history
	// than the result cache; a repeat request whose result was evicted
	// is rematerialized from its plan instead of replanned.
	PlanCacheBytes int64
	// Timeout bounds one rewrite job, queue wait included (default
	// 60s; 0 keeps the default, negative disables).
	Timeout time.Duration
	// MaxBodyBytes bounds the request body (default 64 MiB).
	MaxBodyBytes int64
	// Limits bounds each rewrite's resource consumption (text size,
	// patch sites, trampoline bytes, per-phase deadlines); violations
	// map to 413/422/504 with per-reason rejection metrics. The zero
	// value disables the per-rewrite bounds (MaxBodyBytes still caps
	// the upload).
	Limits e9patch.Limits
	// Cluster names this node's place in a static consistent-hash
	// cluster (DESIGN.md §15). The zero value runs single-node. When
	// enabled, requests for keys owned by a peer are forwarded to it
	// (falling back to local handling when the peer is down), misses on
	// non-owned keys try a peer plan-fetch before replanning, and
	// GET /internal/v1/plan/{key} serves this node's plan shard.
	Cluster cluster.Config
	// MaxBatchBytes bounds one /v1/batch request body (default 4x
	// MaxBodyBytes); MaxBatchItems bounds the items in it (default 256).
	MaxBatchBytes int64
	MaxBatchItems int
	// BatchTenantConcurrency caps how many batch items one tenant (the
	// X-E9-Tenant header) may have in flight on this node at once
	// (default: half the workers, min 1) — one tenant's fleet-wide
	// batch cannot starve the others.
	BatchTenantConcurrency int
	// Logf, when non-nil, receives internal-failure details that are
	// deliberately kept out of 500 response bodies (default: the
	// standard library logger).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.PlanCacheBytes <= 0 {
		c.PlanCacheBytes = 64 << 20
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 4 * c.MaxBodyBytes
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.BatchTenantConcurrency <= 0 {
		c.BatchTenantConcurrency = max(1, c.Workers/2)
	}
	c.Cluster = c.Cluster.WithDefaults()
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// RewriteFunc executes one rewrite; tests substitute it to gate and
// count executions. key is the request's cache key, which the handler
// has already derived from binary and spec: the default implementation
// banks the plan under it.
type RewriteFunc func(ctx context.Context, key string, binary []byte, spec *Spec) (*e9patch.Result, error)

// Server is the rewrite service. Create with New, mount Handler, and
// Close after the HTTP server has drained.
type Server struct {
	cfg      Config
	pool     *pool
	cache    *lruCache[*cacheEntry]
	plans    *lruCache[*planEntry]
	flights  *flightGroup
	metrics  *Metrics
	rewrite  RewriteFunc
	mux      *http.ServeMux
	draining atomic.Bool

	// durMu guards meanRewriteSec, an exponentially weighted rolling
	// mean of rewrite wall time used to derive Retry-After under
	// backpressure (0 until the first completed rewrite).
	durMu          sync.Mutex
	meanRewriteSec float64

	// shards bounds intra-rewrite shard helpers across ALL concurrent
	// rewrites: request-level workers and per-request parallel phases
	// draw from one budget of cfg.Workers goroutines, so a busy queue
	// degrades each rewrite toward sequential instead of
	// oversubscribing the machine.
	shards *e9patch.Pool

	// Cluster state (nil/unused when Config.Cluster is zero): the
	// consistent-hash ring mapping cache keys to owner nodes, the peer
	// plan-fetch client, the shared peer-health tracker, and the
	// HTTP client used to forward whole requests to their owners.
	ring   *cluster.Ring
	peers  *cluster.Client
	health *cluster.Health
	fwd    *http.Client

	// tenants rate-limits /v1/batch fan-out per tenant.
	tenants *tenantLimiter
}

// New builds a Server with cfg (zero values take defaults). An invalid
// cluster config (a Self outside the peer list) panics: it is a
// deployment error that would silently shard every key remotely.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if err := cfg.Cluster.Validate(); err != nil {
		panic(err)
	}
	s := &Server{
		cfg:     cfg,
		pool:    newPool(cfg.Workers, cfg.QueueLen),
		cache:   newLRUCache[*cacheEntry](cfg.CacheBytes),
		plans:   newLRUCache[*planEntry](cfg.PlanCacheBytes),
		flights: newFlightGroup(),
		metrics: NewMetrics(),
		shards:  e9patch.NewPool(cfg.Workers),
		tenants: newTenantLimiter(cfg.BatchTenantConcurrency),
	}
	if cfg.Cluster.Enabled() {
		s.ring = cluster.NewRing(cfg.Cluster.Peers, cfg.Cluster.Replicas)
		s.health = cluster.NewHealth(cfg.Cluster.Cooldown)
		s.peers = cluster.NewClient(cfg.Cluster, s.health, cfg.PlanCacheBytes)
		s.fwd = &http.Client{}
	}
	// Last-resort containment: a panic that escapes a job closure (i.e.
	// server code outside the per-job recovery below) must not take the
	// worker down. Coalesced waiters of such a job time out rather than
	// hang forever; the per-job boundary exists so this path stays cold.
	s.pool.onPanic = func(v any) {
		s.metrics.IncPanicRecovered()
		s.cfg.Logf("e9served: recovered worker panic: %v", v)
	}
	s.rewrite = func(ctx context.Context, key string, binary []byte, spec *Spec) (*e9patch.Result, error) {
		rcfg := spec.Config()
		if rcfg.Parallelism <= 0 || rcfg.Parallelism > s.cfg.Workers {
			rcfg.Parallelism = s.cfg.Workers
		}
		rcfg.Pool = s.shards
		rcfg.Limits = s.cfg.Limits
		// Plan, bank the plan in the second cache tier, then apply. The
		// plan costs a few dozen bytes per site where the result costs the
		// whole output binary, so it survives long after the result entry
		// is evicted and turns a future repeat into a decision-free
		// rematerialize.
		p, err := e9patch.PlanContext(ctx, binary, rcfg)
		if err != nil {
			return nil, err
		}
		if enc, err := p.Encode(); err == nil {
			s.plans.put(key, &planEntry{data: enc})
		}
		// The plan was produced by this very call against these very
		// bytes, so the trusted apply path (no universe re-derivation)
		// is exact, not a shortcut.
		return e9patch.ApplyTrustedContext(ctx, binary, p)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/rewrite", s.handleRewrite)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v2/rewrite", s.handleRewriteV2)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET "+cluster.PlanPath+"{key}", s.handlePlanFetch)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (e.g. for embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// BeginDrain flips /healthz to 503 so load balancers stop routing new
// work while in-flight requests complete.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close waits for queued and running jobs to finish. Call only after
// the HTTP server has stopped accepting requests.
func (s *Server) Close() { s.pool.close() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entries, bytes, evictions := s.cache.stats()
	pEntries, pBytes, pEvictions := s.plans.stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w, Gauges{
		QueueDepth:         s.pool.depth(),
		CacheEntries:       entries,
		CacheBytes:         bytes,
		CacheEvictions:     evictions,
		PlanCacheEntries:   pEntries,
		PlanCacheBytes:     pBytes,
		PlanCacheEvictions: pEvictions,
		Workers:            s.cfg.Workers,
	})
}

// rewriteStats is the JSON served in the X-E9-Stats response header.
type rewriteStats struct {
	Total       int      `json:"total"`
	Patched     int      `json:"patched"`
	Failed      int      `json:"failed"`
	B1          int      `json:"B1"`
	B2          int      `json:"B2"`
	T1          int      `json:"T1"`
	T2          int      `json:"T2"`
	T3          int      `json:"T3"`
	B0          int      `json:"B0"`
	Insts       int      `json:"insts"`
	Trampolines int      `json:"trampolines"`
	Mappings    int      `json:"mappings"`
	InputSize   int      `json:"inputSize"`
	OutputSize  int      `json:"outputSize"`
	Warnings    []string `json:"warnings,omitempty"`
}

// rematerialize replays a cached plan onto the request body, yielding
// the same entry a full rewrite would have produced.
func (s *Server) rematerialize(ctx context.Context, body []byte, pe *planEntry) (*cacheEntry, error) {
	p, err := e9patch.DecodePlan(pe.data)
	if err != nil {
		return nil, err
	}
	return s.applyPlan(ctx, body, p)
}

// applyPlan replays an already-decoded plan onto body via the trusted
// apply path. Every plan reaching here is either self-produced (banked
// by s.rewrite) or peer-produced and decode-validated; both are
// input-bound, which ApplyTrusted verifies, so skipping the
// disassembly-universe re-derivation costs no safety and most of the
// rematerialization time on large binaries.
func (s *Server) applyPlan(ctx context.Context, body []byte, p *e9patch.PatchPlan) (*cacheEntry, error) {
	res, err := e9patch.ApplyTrustedContext(ctx, body, p)
	if err != nil {
		return nil, err
	}
	return entryFromResult(res), nil
}

// entryFromResult freezes a rewrite result into a cache entry.
func entryFromResult(res *e9patch.Result) *cacheEntry {
	st := rewriteStats{
		Total:       res.Stats.Total,
		Patched:     res.Stats.Patched(),
		Failed:      res.Stats.Failed,
		B1:          res.Stats.ByTactic[patch.TacticB1],
		B2:          res.Stats.ByTactic[patch.TacticB2],
		T1:          res.Stats.ByTactic[patch.TacticT1],
		T2:          res.Stats.ByTactic[patch.TacticT2],
		T3:          res.Stats.ByTactic[patch.TacticT3],
		B0:          res.Stats.ByTactic[patch.TacticB0],
		Insts:       res.Insts,
		Trampolines: res.Trampolines,
		Mappings:    res.Mappings,
		InputSize:   res.InputSize,
		OutputSize:  res.OutputSize,
		Warnings:    res.Warnings,
	}
	j, err := json.Marshal(st)
	if err != nil { // struct of ints and strings: cannot fail
		j = []byte("{}")
	}
	return &cacheEntry{out: res.Output, statsJSON: j}
}

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
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

	body, err := cluster.ReadSized(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes),
		min(r.ContentLength, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		code = "499" // client went away mid-upload
		return
	}
	if len(body) == 0 {
		fail(http.StatusBadRequest, "empty body: POST the ELF binary to rewrite")
		return
	}
	spec, err := parseSpec(r)
	if err != nil {
		// A spec-language program that fails to parse or typecheck is
		// semantically invalid rather than a malformed request: 422,
		// with the 1-based line:column in the body. The metric label is
		// the bare class constant — the position-bearing reason would
		// explode cardinality.
		if errors.Is(err, e9patch.ErrBadSpec) {
			s.metrics.IncRejected(e9err.ReasonBadSpec)
			fail(http.StatusUnprocessableEntity, err.Error())
			return
		}
		fail(http.StatusBadRequest, err.Error())
		return
	}

	key := cacheKey(body, spec)
	wantPlan := acceptsPlan(r)

	// Local result hit: serve straight away, owned key or not — a hot
	// local entry beats a network hop. (Plan-delta requests want the
	// plan bytes, which live in the other tier; fall through for those.)
	if !wantPlan {
		if e, ok := s.cache.get(key); ok {
			s.metrics.IncHit()
			s.serve(w, e, "hit")
			return
		}
	}

	// Front-door routing: a key owned by a peer is the peer's to serve,
	// so cache shards stay disjoint across the fleet. Falls through to
	// local handling when the owner is down (availability beats shard
	// discipline) or when this request was already routed once.
	if handled, upstream := s.tryForward(w, r, body, key); handled {
		code = upstream
		return
	}

	if wantPlan {
		s.handlePlanDelta(w, r, body, spec, key, fail, func() { code = "499" })
		return
	}
	s.metrics.IncMiss()

	// Second tier: a banked plan rematerializes the result without any
	// tactic search. Apply is pure replay — a small fraction of a full
	// rewrite — so it runs on the handler goroutine rather than queueing
	// behind planning-heavy jobs in the worker pool.
	if pe, ok := s.plans.get(key); ok {
		if e, err := s.rematerialize(r.Context(), body, pe); err == nil {
			s.metrics.IncPlanHit()
			s.cache.put(key, e)
			s.serve(w, e, "plan")
			return
		}
		// A plan that no longer applies (corrupt or stale) is treated as
		// a miss; the full pipeline below replaces it.
	}
	s.metrics.IncPlanMiss()

	// Third tier, cluster only: this node is handling a key it does not
	// own (routed here, or the owner was down when the front door looked).
	// The owner may still hold the plan — one small GET plus a
	// decision-free Apply beats redoing the whole tactic search.
	if e, ok := s.peerRematerialize(r.Context(), key, body); ok {
		s.serve(w, e, "peer-plan")
		return
	}

	entry, shared, err := s.rewriteFlight(r.Context(), key, body, spec)
	if shared {
		s.metrics.IncCoalesced()
	}
	switch {
	case err == nil:
		status := "miss"
		if shared {
			status = "coalesced"
		}
		s.serve(w, entry, status)
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", s.retryAfter())
		fail(http.StatusTooManyRequests, "work queue full; retry later")
	default:
		s.failClassified(err, fail, func() { code = "499" })
	}
}

// rewriteFlight runs the full rewrite for key through singleflight
// coalescing and the bounded worker pool: the backpressured slow path
// shared by /v1/rewrite's binary and plan-delta flows.
func (s *Server) rewriteFlight(ctx context.Context, key string, body []byte, spec *Spec) (*cacheEntry, bool, error) {
	return s.flights.do(ctx, key, s.cfg.Timeout,
		func(jobCtx context.Context, finish func(*cacheEntry, error)) error {
			submitErr := s.pool.trySubmit(func() {
				if err := jobCtx.Err(); err != nil {
					finish(nil, err) // every waiter left while queued
					return
				}
				s.metrics.IncRewrite()
				jobStart := time.Now()
				res, err := s.runRewrite(jobCtx, key, body, spec)
				s.observeRewrite(time.Since(jobStart))
				if err != nil {
					finish(nil, err)
					return
				}
				e := entryFromResult(res)
				s.cache.put(key, e)
				finish(e, nil)
			})
			if submitErr != nil {
				s.metrics.IncQueueFull()
			}
			return submitErr
		})
}

// handlePlanDelta serves the plan-delta flow of /v1/rewrite (Accept:
// application/x-e9-plan): the client gets the serialized PatchPlan and
// applies it locally, so the response is ~plan-size instead of
// ~binary-size. Tiering mirrors the binary flow — local plan cache,
// then the key's owner, then a full (pool-bounded, coalesced) rewrite
// whose planning phase banks the plan this response serves.
func (s *Server) handlePlanDelta(w http.ResponseWriter, r *http.Request, body []byte, spec *Spec,
	key string, fail func(int, string), gone func()) {

	if pe, ok := s.plans.get(key); ok {
		s.metrics.IncPlanHit()
		s.servePlan(w, r, pe.data, "plan")
		return
	}
	s.metrics.IncPlanMiss()
	if data, _, ok := s.peerPlan(r.Context(), key); ok {
		s.metrics.IncPeerPlanHit()
		s.plans.put(key, &planEntry{data: data})
		s.servePlan(w, r, data, "peer-plan")
		return
	}
	_, shared, err := s.rewriteFlight(r.Context(), key, body, spec)
	if shared {
		s.metrics.IncCoalesced()
	}
	switch {
	case err == nil:
		pe, ok := s.plans.get(key)
		if !ok {
			// The rewrite succeeded but no plan was banked (encode failure
			// — effectively unreachable — or a test stub rewrite path).
			fail(http.StatusInternalServerError, "plan unavailable for this rewrite")
			return
		}
		status := "miss"
		if shared {
			status = "coalesced"
		}
		s.servePlan(w, r, pe.data, status)
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", s.retryAfter())
		fail(http.StatusTooManyRequests, "work queue full; retry later")
	default:
		s.failClassified(err, fail, gone)
	}
}

// failClassified maps a classified pipeline failure onto an HTTP status;
// shared by the v1 and v2 rewrite handlers. gone fires instead of a
// response when our own client abandoned the request.
func (s *Server) failClassified(err error, fail func(int, string), gone func()) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fail(http.StatusGatewayTimeout,
			fmt.Sprintf("rewrite exceeded the %s budget", s.cfg.Timeout))
	case errors.Is(err, context.Canceled):
		gone() // client went away; nothing to write
	case errors.Is(err, e9patch.ErrResourceLimit):
		reason := "unknown"
		var ee *e9patch.Error
		if errors.As(err, &ee) && ee.Reason != "" {
			reason = ee.Reason
		}
		s.metrics.IncRejected(reason)
		switch reason {
		case e9err.ReasonInputTooLarge, e9err.ReasonTextTooLarge, e9err.ReasonMessageTooLarge:
			fail(http.StatusRequestEntityTooLarge, err.Error())
		case e9err.ReasonPhaseDeadline:
			fail(http.StatusGatewayTimeout, err.Error())
		default:
			fail(http.StatusUnprocessableEntity, err.Error())
		}
	case errors.Is(err, e9patch.ErrInternal):
		// Our bug, not the client's: keep the stack and detail in the
		// log, out of the response body.
		s.cfg.Logf("e9served: internal rewrite failure: %v", err)
		fail(http.StatusInternalServerError, "internal error")
	default:
		// Everything else the pipeline classifies as the client's input:
		// malformed or unsupported binaries, plans, specs and protocol
		// streams.
		fail(http.StatusUnprocessableEntity, err.Error())
	}
}

// runRewrite executes the configured rewrite function behind the
// per-job recovery boundary: a panic in the rewrite path (including
// test-injected RewriteFuncs that bypass the library's own boundaries)
// becomes an ErrInternal result that is routed to finish like any other
// failure, so coalesced waiters are released instead of timing out.
// Panics already contained by the library surface here as classified
// errors with a recorded stack; both shapes count toward
// panic_recovered_total.
func (s *Server) runRewrite(ctx context.Context, key string, body []byte, spec *Spec) (res *e9patch.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = e9err.FromPanic("server", v)
		}
		var ee *e9patch.Error
		if errors.As(err, &ee) && ee.Recovered() {
			s.metrics.IncPanicRecovered()
			s.cfg.Logf("e9served: panic contained during rewrite: %v\n%s", ee, ee.Stack)
		}
	}()
	return s.rewrite(ctx, key, body, spec)
}

// observeRewrite feeds one rewrite's wall time into the rolling mean
// behind Retry-After (EWMA, 20% weight on the newest sample).
// Non-positive and non-finite samples are dropped: a clock step or a
// poisoned duration must never corrupt the mean into something the
// retryAfter clamp cannot contain.
func (s *Server) observeRewrite(d time.Duration) {
	sec := d.Seconds()
	if !(sec > 0) || math.IsInf(sec, 0) { // also rejects NaN
		return
	}
	s.durMu.Lock()
	if s.meanRewriteSec == 0 {
		s.meanRewriteSec = sec
	} else {
		s.meanRewriteSec = 0.8*s.meanRewriteSec + 0.2*sec
	}
	s.durMu.Unlock()
}

// retryAfter estimates when the queue will have room again: the current
// backlog plus the rejected job itself, spread across the workers, each
// slot costing the rolling mean rewrite duration. Clamped to [1, 30]
// seconds — long enough to matter, short enough that clients retry
// while the estimate is still meaningful. Before the first completed
// rewrite there is no estimate and the floor is used.
//
// Audit (hardening sweep): under New(), withDefaults guarantees
// Workers >= 1, the EWMA is read under durMu, and IEEE division means
// even workers==0 would yield +Inf — caught by the upper clamp, never
// a panic. The explicit floor on workers below is defense in depth for
// a Server constructed without New (as some tests do), and the clamp
// is written so that any non-finite estimate lands on a bound rather
// than flowing through int(NaN).
func (s *Server) retryAfter() string {
	s.durMu.Lock()
	mean := s.meanRewriteSec
	s.durMu.Unlock()
	if !(mean > 0) {
		return "1" // no completed rewrite yet: the floor
	}
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	est := math.Ceil(mean * float64(s.pool.depth()+1) / float64(workers))
	switch {
	case est > 30:
		est = 30
	case !(est >= 1): // <1, or a non-finite estimate
		est = 1
	}
	return strconv.Itoa(int(est))
}

// serve writes a completed rewrite: stats and cache status in headers,
// the rewritten binary as the body.
func (s *Server) serve(w http.ResponseWriter, e *cacheEntry, cacheStatus string) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", fmt.Sprint(len(e.out)))
	h.Set("X-E9-Stats", string(e.statsJSON))
	h.Set("X-E9-Cache", cacheStatus)
	w.WriteHeader(http.StatusOK)
	w.Write(e.out)
}
