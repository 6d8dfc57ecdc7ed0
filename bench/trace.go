package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1: a root), Op groups the spans of one
// operation. Times are nanoseconds since the tracer started.
type span struct {
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Parent int            `json:"parent"`
	Op     int            `json:"op"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced path carries no branches of its own.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// len is the index the next span will get.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) end(id int) { t.endWith(id, nil) }

// endWith closes a span and attaches counts taken at the same boundary.
func (t *tracer) endWith(id int, attrs map[string]any) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End, t.spans[id].Attrs = now, attrs
	t.mu.Unlock()
}

// durations returns every closed span's length in ms, keyed by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// selfMs is a span's duration minus the part its direct children cover.
func (t *tracer) selfMs(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.spans[id].End - t.spans[id].Start
	for _, s := range t.spans {
		if s.Parent == id {
			self -= s.End - s.Start
		}
	}
	return float64(self) / 1e6
}

// write stores the spans as one JSON document; README.md says how to
// read it.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// calib is the machine-drift probe: a fixed pointer chase through a
// 32 MB ring, so each step is a dependent cache miss. It runs no repo
// code, so when it moves between the first and last third of a run the
// machine moved, not the program under test.
type calib struct {
	ring    []uint32
	samples []float64
}

const (
	calibBytes = 32 << 20
	calibSteps = 150_000
)

func newCalib() *calib {
	n := calibBytes / 4
	ring := make([]uint32, n)
	// One cycle through every slot with a large odd stride: successive
	// steps land on different pages, defeating the prefetcher.
	const stride = 1_000_003
	pos := uint32(0)
	for i := 0; i < n; i++ {
		next := uint32((uint64(pos) + stride) % uint64(n))
		ring[pos] = next
		pos = next
	}
	return &calib{ring: ring}
}

var calibSink uint32

func (c *calib) probe() {
	start := time.Now()
	pos := calibSink % uint32(len(c.ring))
	for i := 0; i < calibSteps; i++ {
		pos = c.ring[pos]
	}
	calibSink = pos
	c.samples = append(c.samples, msOf(time.Since(start)))
}

// report returns the probe's median and how far the last third of the
// run drifted from the first third, in percent.
func (c *calib) report() (p50, driftPct float64) {
	n := len(c.samples)
	if n == 0 {
		return 0, 0
	}
	third := (n + 2) / 3
	first, last := median(c.samples[:third]), median(c.samples[n-third:])
	return median(c.samples), pct(last-first, first)
}
