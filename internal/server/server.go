// Package server implements e9served, a concurrent rewrite service
// over the e9patch library: POST an ELF binary with a matcher
// expression and tactic switches, get the rewritten binary back.
//
// The service is shaped for sustained batch traffic rather than
// one-shot CLI use (the deployability bar of the broad rewriter
// evaluations — see DESIGN.md §12):
//
//   - one budget of Workers leases (internal/work) for every rewrite
//     job and its shard helpers, and at most QueueLen jobs waiting for
//     a lease: overload returns 429 + Retry-After instead of unbounded
//     goroutines (backpressure);
//   - a content-addressed result cache keyed by sha256(binary) +
//     canonicalised config, with byte-budgeted LRU eviction;
//   - singleflight coalescing: N concurrent identical requests trigger
//     exactly one rewrite;
//   - per-request timeouts and real cancellation, threaded through the
//     rewrite pipeline (one e9patch.Stream, read as plan and output);
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
	// Workers is the lease budget (default GOMAXPROCS): the most
	// goroutines rewriting at once, rewrite jobs and their shard
	// helpers together.
	Workers int
	// QueueLen bounds the rewrite jobs waiting for a lease (default
	// 64); a job beyond it is rejected with 429.
	QueueLen int
	// CacheBytes is the result-cache byte budget (default 256 MiB).
	CacheBytes int64
	// PlanCacheBytes is the plan-cache byte budget (default 64 MiB).
	// Plans are kilobyte-scale, so this tier remembers far more history
	// than the result cache; a repeat request whose result was evicted
	// is rematerialized from its plan instead of replanned.
	PlanCacheBytes int64
	// Timeout bounds one rewrite job, lease wait included (default
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
	// cluster (DESIGN.md §12). The zero value runs single-node. When
	// enabled, a /v1/rewrite or batch item whose key a peer owns is asked
	// of that peer, and handled locally when the peer is down.
	Cluster cluster.Config
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
	c.Cluster = c.Cluster.WithDefaults()
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// RewriteFunc executes one rewrite and returns its result and its
// encoded plan, which the job banks; tests substitute it to gate and
// count executions.
type RewriteFunc func(ctx context.Context, binary []byte, spec *Spec) (*e9patch.Result, []byte, error)

// Server is the rewrite service. Create with New, mount Handler, and
// Close after the HTTP server has drained.
type Server struct {
	cfg      Config
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

	// shards is the one budget of cfg.Workers leases: every rewrite job
	// holds one for its whole run (admit) and its parallel phases lease
	// helpers from the rest, so a busy server degrades each rewrite
	// toward sequential instead of oversubscribing the machine.
	shards *e9patch.Pool

	// admitMu guards waiting (jobs admitted but not yet holding a
	// lease) and closed; jobs counts every admitted job until it ends.
	admitMu sync.Mutex
	waiting int
	closed  bool
	jobs    sync.WaitGroup

	// Cluster state (nil/unused when Config.Cluster is zero): the
	// consistent-hash ring mapping cache keys to owner nodes, the
	// peer-health tracker, and the HTTP client that asks owners.
	ring   *cluster.Ring
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
		cache:   newLRUCache[*cacheEntry](cfg.CacheBytes),
		plans:   newLRUCache[*planEntry](cfg.PlanCacheBytes),
		flights: newFlightGroup(),
		metrics: NewMetrics(),
		shards:  e9patch.NewPool(cfg.Workers),
		tenants: newTenantLimiter(cfg.Workers / 2),
	}
	if cfg.Cluster.Enabled() {
		s.ring = cluster.NewRing(cfg.Cluster.Peers, cluster.DefaultReplicas)
		s.health = cluster.NewHealth(cfg.Cluster.Cooldown)
		s.fwd = &http.Client{}
	}
	s.rewrite = func(ctx context.Context, binary []byte, spec *Spec) (*e9patch.Result, []byte, error) {
		rcfg := spec.Config()
		rcfg.Parallelism = s.cfg.Workers
		rcfg.Pool = s.shards
		rcfg.Limits = s.cfg.Limits
		// One session decides once and is read twice: as the plan, which
		// costs a few dozen bytes per site where the result costs the whole
		// output binary, so it outlives the result entry and turns a future
		// repeat into a decision-free rematerialize; then as the output.
		st, err := e9patch.NewStream(ctx, binary, rcfg)
		if err != nil {
			return nil, nil, err
		}
		p, err := st.Plan(ctx)
		if err != nil {
			return nil, nil, err
		}
		// p is dead once encoded. A plan this process has just made that
		// does not encode can only be a bug.
		enc, err := p.Encode()
		if err != nil {
			return nil, nil, &e9err.Error{Class: e9err.ErrInternal, Phase: "server", Err: err}
		}
		res, err := st.Finish(ctx)
		if err != nil {
			return nil, nil, err
		}
		return res, enc, nil
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/rewrite", s.accounted(s.handleRewrite))
	s.mux.HandleFunc("POST /v1/batch", s.accounted(s.handleBatch))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips /healthz to 503 so load balancers stop routing new
// work while in-flight requests complete.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close turns away new jobs and waits for waiting and running ones to
// finish. Call only after the HTTP server has stopped accepting
// requests.
func (s *Server) Close() {
	s.admitMu.Lock()
	s.closed = true
	s.admitMu.Unlock()
	s.jobs.Wait()
}

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
		QueueDepth:         s.queueDepth(),
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

// handleRewrite serves POST /v1/rewrite: the rewritten binary, or with
// Accept: application/x-e9-plan the serialized PatchPlan (a plan-delta,
// applied client-side, so the response is ~plan-size instead of
// ~binary-size). A key another node owns is asked of that node
// (fromOwner); a cold rewrite waits for a lease (admit).
func (s *Server) handleRewrite(x *exchange, r *http.Request) {
	body, err := cluster.ReadSized(http.MaxBytesReader(x.w, r.Body, s.cfg.MaxBodyBytes),
		min(r.ContentLength, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			x.fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		x.fail(statusClientGone, "") // client went away mid-upload
		return
	}
	if len(body) == 0 {
		x.fail(http.StatusBadRequest, "empty body: POST the ELF binary to rewrite")
		return
	}
	spec, err := parseSpec(r)
	if err != nil {
		x.fail(s.classifySpec(err))
		return
	}

	a := ask{key: cacheKey(body, spec), body: body, spec: spec, plan: accepts(r, "Accept", cluster.PlanContentType),
		query: r.URL.RawQuery, header: r.Header}
	ans, err := s.resolve(r.Context(), a)
	if ans.node != "" {
		x.w.Header().Set("X-E9-Node", ans.node)
	}
	switch {
	case err != nil:
		var oe *ownerError
		if errors.As(err, &oe) && oe.retryAfter != "" {
			x.w.Header().Set("Retry-After", oe.retryAfter)
		} else if errors.Is(err, errQueueFull) {
			x.w.Header().Set("Retry-After", s.retryAfter())
		}
		x.fail(s.classify(err))
	case a.plan:
		s.servePlan(x.w, r, ans.plan, ans.cache)
	default:
		s.serve(x.w, ans.entry, ans.cache)
	}
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

// retryAfter estimates when the queue will have room again: the jobs
// waiting for a lease plus the rejected job itself, spread across the
// workers, each slot costing the rolling mean rewrite duration. Clamped
// to [1, 30] seconds — long enough to matter, short enough that clients
// retry while the estimate is still meaningful. Before the first
// completed rewrite there is no estimate and the floor is used. The
// clamp is written so that any non-finite estimate lands on a bound
// rather than flowing through int(NaN).
func (s *Server) retryAfter() string {
	s.durMu.Lock()
	mean := s.meanRewriteSec
	s.durMu.Unlock()
	if !(mean > 0) {
		return "1" // no completed rewrite yet: the floor
	}
	est := math.Ceil(mean * float64(s.queueDepth()+1) / float64(s.cfg.Workers))
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
