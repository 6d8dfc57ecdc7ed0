package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Metrics is a hand-rolled metrics registry exposed in Prometheus text
// format (the module has no dependencies, so no client library). All
// mutators are safe for concurrent use.
type Metrics struct {
	mu        sync.Mutex
	requests  map[string]uint64 // by HTTP status code
	rewrites  uint64            // underlying rewrite pipeline executions
	hits      uint64            // result-cache hits
	misses    uint64            // result-cache misses
	planHits  uint64            // plan-cache hits (result rematerialized)
	planMiss  uint64            // plan-cache misses
	coalesced uint64            // requests that shared another request's flight
	queueFull uint64            // submissions rejected by backpressure
	panics    uint64            // panics contained by a recovery boundary
	rejected  map[string]uint64 // resource-limit rejections by reason
	inflight  int64             // requests currently being handled

	peerPlanHits uint64            // results rematerialized from a peer-fetched plan
	peerPlanMiss uint64            // peer plan fetches that found no plan (or no peer)
	forwarded    uint64            // requests routed to their key's owner node
	fwdFallback  uint64            // forwards that failed over to local handling
	planDelta    uint64            // plan-delta (application/x-e9-plan) responses
	batches      uint64            // completed /v1/batch jobs
	batchItems   map[string]uint64 // batch items by outcome ("ok"/"error")

	buckets []uint64 // len(latencyBuckets)+1, last slot is +Inf
	latSum  float64
	latN    uint64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:   make(map[string]uint64),
		rejected:   make(map[string]uint64),
		batchItems: make(map[string]uint64),
		buckets:    make([]uint64, len(latencyBuckets)+1),
	}
}

// IncRequest counts one finished request by status code.
func (m *Metrics) IncRequest(code string) {
	m.mu.Lock()
	m.requests[code]++
	m.mu.Unlock()
}

// IncRewrite counts one underlying rewrite execution.
func (m *Metrics) IncRewrite() { m.inc(&m.rewrites) }

// IncHit / IncMiss / IncCoalesced / IncQueueFull count cache and
// coalescing outcomes.
func (m *Metrics) IncHit()  { m.inc(&m.hits) }
func (m *Metrics) IncMiss() { m.inc(&m.misses) }

// IncPlanHit / IncPlanMiss count plan-tier outcomes (consulted only
// after a result-cache miss).
func (m *Metrics) IncPlanHit()   { m.inc(&m.planHits) }
func (m *Metrics) IncPlanMiss()  { m.inc(&m.planMiss) }
func (m *Metrics) IncCoalesced() { m.inc(&m.coalesced) }
func (m *Metrics) IncQueueFull() { m.inc(&m.queueFull) }

// IncPanicRecovered counts one panic contained by a recovery boundary
// (rewrite job or library pipeline) instead of killing the process.
func (m *Metrics) IncPanicRecovered() { m.inc(&m.panics) }

// IncPeerPlanHit / IncPeerPlanMiss count peer plan-fetch outcomes: a
// hit is a result rematerialized from a plan the key's owner shipped
// over, a miss means the owner held no plan (or was unreachable) and a
// full local rewrite followed.
func (m *Metrics) IncPeerPlanHit()  { m.inc(&m.peerPlanHits) }
func (m *Metrics) IncPeerPlanMiss() { m.inc(&m.peerPlanMiss) }

// IncForwarded / IncForwardFallback count front-door routing: requests
// proxied to their key's owner, and forwards that failed over to local
// handling because the owner was down.
func (m *Metrics) IncForwarded()       { m.inc(&m.forwarded) }
func (m *Metrics) IncForwardFallback() { m.inc(&m.fwdFallback) }

// IncPlanDelta counts plan-delta responses (the client applies
// locally; egress drops from binary-size to plan-size).
func (m *Metrics) IncPlanDelta() { m.inc(&m.planDelta) }

// IncBatch counts one completed /v1/batch job; IncBatchItem counts
// each item within one by outcome.
func (m *Metrics) IncBatch() { m.inc(&m.batches) }
func (m *Metrics) IncBatchItem(outcome string) {
	m.mu.Lock()
	m.batchItems[outcome]++
	m.mu.Unlock()
}

// IncRejected counts one request rejected by a resource limit, by
// machine-readable reason (the e9err.Reason* constants).
func (m *Metrics) IncRejected(reason string) {
	m.mu.Lock()
	m.rejected[reason]++
	m.mu.Unlock()
}

func (m *Metrics) inc(p *uint64) {
	m.mu.Lock()
	*p++
	m.mu.Unlock()
}

// AddInflight adjusts the in-flight request gauge.
func (m *Metrics) AddInflight(d int64) {
	m.mu.Lock()
	m.inflight += d
	m.mu.Unlock()
}

// Observe records one request latency in seconds.
func (m *Metrics) Observe(seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := 0
	for i < len(latencyBuckets) && seconds > latencyBuckets[i] {
		i++
	}
	m.buckets[i]++
	m.latSum += seconds
	m.latN++
}

// Gauges carries point-in-time values owned by other components,
// sampled at scrape time.
type Gauges struct {
	QueueDepth         int
	CacheEntries       int
	CacheBytes         int64
	CacheEvictions     uint64
	PlanCacheEntries   int
	PlanCacheBytes     int64
	PlanCacheEvictions uint64
	Workers            int
}

// WriteText renders the registry in Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer, g Gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP e9served_requests_total Finished HTTP requests by status code.\n")
	fmt.Fprintf(w, "# TYPE e9served_requests_total counter\n")
	codes := make([]string, 0, len(m.requests))
	for c := range m.requests {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "e9served_requests_total{code=%q} %d\n", c, m.requests[c])
	}

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("e9served_rewrites_total", "Underlying rewrite pipeline executions.", m.rewrites)
	counter("e9served_cache_hits_total", "Result-cache hits.", m.hits)
	counter("e9served_cache_misses_total", "Result-cache misses.", m.misses)
	counter("e9served_cache_evictions_total", "Result-cache evictions.", g.CacheEvictions)
	counter("e9served_plan_cache_hits_total", "Plan-cache hits (result rematerialized from a cached plan).", m.planHits)
	counter("e9served_plan_cache_misses_total", "Plan-cache misses.", m.planMiss)
	counter("e9served_plan_cache_evictions_total", "Plan-cache evictions.", g.PlanCacheEvictions)
	counter("e9served_coalesced_total", "Requests coalesced onto another request's rewrite.", m.coalesced)
	counter("e9served_queue_full_total", "Requests rejected because the work queue was full.", m.queueFull)
	counter("e9served_panic_recovered_total", "Panics contained by a recovery boundary.", m.panics)
	counter("e9served_peer_plan_hits_total", "Results rematerialized from a peer-fetched plan.", m.peerPlanHits)
	counter("e9served_peer_plan_misses_total", "Peer plan fetches that found no usable plan.", m.peerPlanMiss)
	counter("e9served_forwarded_total", "Requests routed to their key's owner node.", m.forwarded)
	counter("e9served_forward_fallback_total", "Forwards failed over to local handling (owner down).", m.fwdFallback)
	counter("e9served_plan_delta_total", "Plan-delta responses served (client applies locally).", m.planDelta)
	counter("e9served_batches_total", "Completed /v1/batch jobs.", m.batches)

	fmt.Fprintf(w, "# HELP e9served_batch_items_total Batch items by outcome.\n")
	fmt.Fprintf(w, "# TYPE e9served_batch_items_total counter\n")
	outcomes := make([]string, 0, len(m.batchItems))
	for o := range m.batchItems {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		fmt.Fprintf(w, "e9served_batch_items_total{outcome=%q} %d\n", o, m.batchItems[o])
	}

	fmt.Fprintf(w, "# HELP e9served_rejected_total Requests rejected by a resource limit, by reason.\n")
	fmt.Fprintf(w, "# TYPE e9served_rejected_total counter\n")
	reasons := make([]string, 0, len(m.rejected))
	for reason := range m.rejected {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(w, "e9served_rejected_total{reason=%q} %d\n", reason, m.rejected[reason])
	}

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("e9served_inflight", "Requests currently being handled.", m.inflight)
	gauge("e9served_queue_depth", "Rewrite jobs waiting for a worker lease.", int64(g.QueueDepth))
	gauge("e9served_workers", "Worker lease budget.", int64(g.Workers))
	gauge("e9served_cache_entries", "Result-cache entry count.", int64(g.CacheEntries))
	gauge("e9served_cache_bytes", "Result-cache bytes in use.", g.CacheBytes)
	gauge("e9served_plan_cache_entries", "Plan-cache entry count.", int64(g.PlanCacheEntries))
	gauge("e9served_plan_cache_bytes", "Plan-cache bytes in use.", g.PlanCacheBytes)

	fmt.Fprintf(w, "# HELP e9served_request_duration_seconds Request latency.\n")
	fmt.Fprintf(w, "# TYPE e9served_request_duration_seconds histogram\n")
	cum := uint64(0)
	for i, ub := range latencyBuckets {
		cum += m.buckets[i]
		fmt.Fprintf(w, "e9served_request_duration_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.buckets[len(latencyBuckets)]
	fmt.Fprintf(w, "e9served_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "e9served_request_duration_seconds_sum %g\n", m.latSum)
	fmt.Fprintf(w, "e9served_request_duration_seconds_count %d\n", m.latN)
}

// trimFloat formats a bucket bound the way Prometheus clients do
// (no trailing zeros).
func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
