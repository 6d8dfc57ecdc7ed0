package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchRecordsMatchRegistry parses every BENCH_*.json in the module
// root: each must decode as a record with no unknown field, and every
// row must name a workload and an end-to-end metric of BENCHMARK.json
// (a layer row a per-layer metric), so a renamed metric cannot leave a
// recorded trajectory unreadable.
func TestBenchRecordsMatchRegistry(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	workloads, metrics, layerMetrics := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range c.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range c.EndToEnd {
		metrics[m.Name] = true
	}
	for _, m := range c.PerLayer {
		layerMetrics[m.Name] = true
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var r record
		if err := dec.Decode(&r); err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if r.Parent == "" || r.Change == "" || r.Nproc < 1 || r.Go == "" || r.Date == "" || r.Pairs < 1 || len(r.Rows) == 0 {
			t.Errorf("%s: incomplete header or no rows", f)
		}
		for _, row := range r.Rows {
			if !workloads[row.Workload] {
				t.Errorf("%s: workload %q is not in BENCHMARK.json", f, row.Workload)
			}
			if !metrics[row.Metric] {
				t.Errorf("%s: %q is not an end-to-end metric of BENCHMARK.json", f, row.Metric)
			}
			if row.Pairs != r.Pairs || row.Wins < 0 || row.Wins > row.Pairs {
				t.Errorf("%s: %s/%s: %d wins of %d pairs (record: %d pairs)", f, row.Workload, row.Metric, row.Wins, row.Pairs, r.Pairs)
			}
		}
		for _, row := range r.Layers {
			if !workloads[row.Workload] || !layerMetrics[row.Metric] {
				t.Errorf("%s: layer row %s/%s is not a workload and per-layer metric of BENCHMARK.json", f, row.Workload, row.Metric)
			}
		}
	}
	t.Logf("%d BENCH files", len(files))
}

// TestWinsCountsPairs: a win is a pair in which the change beat the
// parent run of the same seed, strictly, in the metric's direction.
func TestWinsCountsPairs(t *testing.T) {
	runs := &[2][]float64{{10, 10, 10, 10}, {9, 11, 10, 8}}
	if got := wins(runs, "lower"); got != 2 {
		t.Errorf("lower: %d wins, want 2", got)
	}
	if got := wins(runs, "higher"); got != 1 {
		t.Errorf("higher: %d wins, want 1", got)
	}
}
