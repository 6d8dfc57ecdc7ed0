package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// counter names one unlabelled counter of the registry.
type counter int

// The unlabelled counters, in scrape order. The two eviction counters
// are owned by the caches and sampled from Gauges at scrape time.
const (
	rewritesTotal counter = iota
	cacheHitsTotal
	cacheMissesTotal
	cacheEvictionsTotal
	planCacheHitsTotal
	planCacheMissesTotal
	planCacheEvictionsTotal
	coalescedTotal
	queueFullTotal
	panicRecoveredTotal
	peerPlanHitsTotal
	peerPlanMissesTotal
	forwardedTotal
	forwardFallbackTotal
	planDeltaTotal
	batchesTotal
	numCounters
)

// counters declares each unlabelled counter once: its metric name and
// its help text.
var counters = [numCounters]struct{ name, help string }{
	rewritesTotal:           {"e9served_rewrites_total", "Underlying rewrite pipeline executions."},
	cacheHitsTotal:          {"e9served_cache_hits_total", "Result-cache hits."},
	cacheMissesTotal:        {"e9served_cache_misses_total", "Result-cache misses."},
	cacheEvictionsTotal:     {"e9served_cache_evictions_total", "Result-cache evictions."},
	planCacheHitsTotal:      {"e9served_plan_cache_hits_total", "Plan-cache hits (result rematerialized from a cached plan)."},
	planCacheMissesTotal:    {"e9served_plan_cache_misses_total", "Plan-cache misses."},
	planCacheEvictionsTotal: {"e9served_plan_cache_evictions_total", "Plan-cache evictions."},
	coalescedTotal:          {"e9served_coalesced_total", "Requests coalesced onto another request's rewrite."},
	queueFullTotal:          {"e9served_queue_full_total", "Requests rejected because the work queue was full."},
	panicRecoveredTotal:     {"e9served_panic_recovered_total", "Panics contained by a recovery boundary."},
	peerPlanHitsTotal:       {"e9served_peer_plan_hits_total", "Results rematerialized from a peer-fetched plan."},
	peerPlanMissesTotal:     {"e9served_peer_plan_misses_total", "Peer plan fetches that found no usable plan."},
	forwardedTotal:          {"e9served_forwarded_total", "Requests routed to their key's owner node."},
	forwardFallbackTotal:    {"e9served_forward_fallback_total", "Forwards failed over to local handling (owner down)."},
	planDeltaTotal:          {"e9served_plan_delta_total", "Plan-delta responses served (client applies locally)."},
	batchesTotal:            {"e9served_batches_total", "Completed /v1/batch jobs."},
}

// Metrics is a hand-rolled metrics registry exposed in Prometheus text
// format (the module has no dependencies, so no client library). All
// mutators are safe for concurrent use.
type Metrics struct {
	mu         sync.Mutex
	counts     [numCounters]uint64
	requests   map[string]uint64 // by HTTP status code
	rejected   map[string]uint64 // resource-limit rejections by reason
	batchItems map[string]uint64 // batch items by outcome ("ok"/"error")
	inflight   int64             // requests currently being handled

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

// inc counts one event of an unlabelled counter.
func (m *Metrics) inc(c counter) {
	m.mu.Lock()
	m.counts[c]++
	m.mu.Unlock()
}

// incLabel counts one event of a labelled counter.
func (m *Metrics) incLabel(byLabel map[string]uint64, label string) {
	m.mu.Lock()
	byLabel[label]++
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

	v := m.counts
	v[cacheEvictionsTotal], v[planCacheEvictionsTotal] = g.CacheEvictions, g.PlanCacheEvictions
	for c, d := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", d.name, d.help, d.name, d.name, v[c])
	}

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
