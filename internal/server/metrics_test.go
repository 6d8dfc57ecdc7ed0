package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsScrape pins the whole /metrics text after a fixed sequence
// of events: every name, help line, label, value and the order they
// come in. bench/served.go parses this text, so a change to it is a
// change of the benchmark's input.
func TestMetricsScrape(t *testing.T) {
	m := NewMetrics()
	for _, code := range []string{"200", "200", "429", "422"} {
		m.incLabel(m.requests, code)
	}
	for c, n := range map[counter]int{
		rewritesTotal: 3, cacheHitsTotal: 1, cacheMissesTotal: 2,
		planCacheHitsTotal: 1, planCacheMissesTotal: 3, coalescedTotal: 1,
		queueFullTotal: 2, panicRecoveredTotal: 1, forwardedTotal: 2,
		forwardFallbackTotal: 1, planDeltaTotal: 1, batchesTotal: 1,
	} {
		for range n {
			m.inc(c)
		}
	}
	for _, o := range []string{"ok", "ok", "error"} {
		m.incLabel(m.batchItems, o)
	}
	m.incLabel(m.rejected, "bad-spec")
	m.incLabel(m.rejected, "text-too-large")
	m.AddInflight(3)
	m.AddInflight(-1)
	for _, s := range []float64{0.0005, 0.003, 0.25, 20} {
		m.Observe(s)
	}
	var got bytes.Buffer
	m.WriteText(&got, Gauges{QueueDepth: 1, CacheEntries: 2, CacheBytes: 3000, CacheEvictions: 4,
		PlanCacheEntries: 5, PlanCacheBytes: 6000, PlanCacheEvictions: 7, Workers: 8})
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_scrape.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("scrape differs from testdata/metrics_scrape.txt:\n%s", got.Bytes())
	}
}
