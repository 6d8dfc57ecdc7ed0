package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"
)

// opSample is one timed operation as its caller saw it.
type opSample struct {
	class    int
	ms       float64
	inBytes  int
	outBytes int
	sites    int // patch locations selected
	patched  int // of which patched
	ok       bool
	why      string // first reason an op was not ok
}

// measurement is the timed section of a run: the ops, and the wall and
// CPU time of the section as a whole.
type measurement struct {
	ops    []opSample
	wallS  float64
	cpuMs  float64 // user+sys of the process(es) doing the work
	peakMB float64
	// extra carries end-to-end metrics only this workload defines.
	extra map[string]float64
}

// benchWorkload is one of the five workloads. A run is: setup (timed,
// repeated so its median is reportable), measure, verify, and for a
// traced run the extra traced ops that fill the per-layer metrics.
type benchWorkload interface {
	// setup generates the inputs from the seed, starts whatever serves
	// them and runs the untimed warm-up pass. Calling it again discards
	// the previous state.
	setup(seed int64) error
	// measure runs ops for the given time (whole rounds, and never fewer
	// than the workload's floor) and checks each op's output.
	measure(seconds float64) (*measurement, error)
	// verify runs the output checks too slow to sit between timed ops.
	verify() error
	// trace runs the traced ops and returns the per-layer metrics.
	trace(tr *tracer, cal *calib, m *measurement) (map[string]float64, error)
	// info describes the inputs and outputs (class SHA-256s): printed,
	// never judged.
	info() []string
	close()
}

// setupRepeats is how often setup runs per invocation; setup_s is the
// median, so one disturbed set-up does not decide it.
const setupRepeats = 3

// minRounds is the floor on class-rotated rounds: 20 rounds of 5 classes
// is the n = 100 a p90 needs.
const minRounds = 20

// rounds calls round(i) until the time budget is spent, and at least
// floor times.
func rounds(seconds float64, floor int, round func(i int) error) error {
	start := time.Now()
	for i := 0; i < floor || time.Since(start).Seconds() < seconds; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// timedSection runs body and returns a measurement carrying its wall
// time, this process's CPU time across it and the peak RSS after it.
func timedSection(body func(m *measurement) error) (*measurement, error) {
	m := &measurement{extra: map[string]float64{}}
	cpu0, _ := selfUsage()
	start := time.Now()
	if err := body(m); err != nil {
		return nil, err
	}
	m.wallS = time.Since(start).Seconds()
	cpu1, peak := selfUsage()
	m.cpuMs, m.peakMB = cpu1-cpu0, peak
	return m, nil
}

// opTimer times one op: a GC first, outside the clock, so an op pays for
// the garbage it makes and not for its predecessor's.
func opTimer(fn func() error) (float64, error) {
	runtime.GC()
	start := time.Now()
	err := fn()
	return msOf(time.Since(start)), err
}

func shaHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// endToEndMetrics turns a measurement into the end-to-end metrics every
// workload defines, plus the workload's own.
func endToEndMetrics(m *measurement, setupS float64, nClasses int) (map[string]float64, int, error) {
	if len(m.ops) == 0 {
		return nil, 0, fmt.Errorf("no ops were measured")
	}
	var ms []float64
	in := make([]float64, nClasses)
	out := make([]float64, nClasses)
	var sites, patched, failed int
	for _, op := range m.ops {
		if !op.ok {
			failed++
			continue
		}
		ms = append(ms, op.ms)
		in[op.class] += float64(op.inBytes)
		out[op.class] += float64(op.outBytes)
		sites += op.sites
		patched += op.patched
	}
	if len(ms) == 0 {
		return nil, failed, fmt.Errorf("every op failed: %s", m.ops[0].why)
	}
	var ratios []float64
	for c := range in {
		if in[c] > 0 {
			ratios = append(ratios, 100*out[c]/in[c])
		}
	}
	n := float64(len(m.ops))
	got := map[string]float64{
		"setup_s":           setupS,
		"op_ms_p50":         median(ms),
		"ops_s":             float64(len(ms)) / m.wallS,
		"cpu_ms_per_op":     m.cpuMs / n,
		"peak_rss_mb":       m.peakMB,
		"out_size_pct":      geomean(ratios),
		"patch_success_pct": pct(float64(patched), float64(sites)),
		"ok_ops_pct":        pct(float64(len(ms)), n),
	}
	for k, v := range m.extra {
		got[k] = v
	}
	return got, failed, nil
}

// okMs returns the wall times of the ops that passed, optionally of one
// class only (class < 0: all).
func okMs(ops []opSample, class int) []float64 {
	var ms []float64
	for _, op := range ops {
		if op.ok && (class < 0 || op.class == class) {
			ms = append(ms, op.ms)
		}
	}
	return ms
}

// harnessMetrics adds what every workload's trace reports the same way:
// the calibration probe, the traced op's median against the timed
// section's, and (where the workload defines it) the timed section's p90.
func harnessMetrics(got map[string]float64, cal *calib, m *measurement, tracedP50 float64, p90 bool) error {
	ms := okMs(m.ops, -1)
	got["harness.calib_ms_p50"], got["harness.calib_drift_pct"] = cal.report()
	got["harness.trace_overhead_pct"] = pct(tracedP50-median(ms), median(ms))
	if !p90 {
		return nil
	}
	var err error
	got["op_ms_p90"], err = quantile(ms, 0.9)
	return err
}
