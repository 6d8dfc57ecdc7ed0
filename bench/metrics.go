package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"syscall"
	"time"
)

// The five workloads. README.md records why each exists.
const (
	wlPatchDense = "patch-dense"
	wlRecoverCET = "recover-cet"
	wlCLI        = "cli-120mb"
	wlServed     = "served-mix"
	wlEmu        = "emu-kernels"
)

var workloadNames = []string{wlPatchDense, wlRecoverCET, wlCLI, wlServed, wlEmu}

// placeholder is printed for a metric on a workload it is not defined
// for: the output contract wants every name on every row, and a fixed 1
// can never be mistaken for a measurement or divide a later comparison
// by zero.
const placeholder = 1.0

// metricDef names one metric. on lists the workloads that measure it
// (nil: all five); everywhere else it reads placeholder.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	on                 []string
}

func (d metricDef) definedOn(workload string) bool {
	return d.on == nil || slices.Contains(d.on, workload)
}

var (
	rewriteWorkloads = []string{wlPatchDense, wlRecoverCET, wlCLI}
	onlyCLI          = []string{wlCLI}
	onlyServed       = []string{wlServed}
	onlyEmu          = []string{wlEmu}
)

// endToEnd is what a caller of the system sees. BENCHMARK.json repeats
// this table; TestBenchmarkJSONMatchesRegistry keeps the two equal. A
// bound has to exceed the spread of ten runs on ten seeds: README.md's
// noise notes say where each one comes from.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "out_size_pct", unit: "%", better: "lower", bound: 0.06},
	{name: "patch_success_pct", unit: "%", better: "higher", bound: 0.015},
	{name: "time_overhead_pct", unit: "%", better: "lower", bound: 0.01, on: onlyEmu},
	{name: "ok_ops_pct", unit: "%", better: "higher", bound: 0.001},
}

// emuEngines is the fixed list behind emu.minst_s.<engine>: the names
// must be static in BENCHMARK.json, so an engine a later change deletes
// reads placeholder instead of changing the schema.
var emuEngines = []string{"interp", "ir", "tbc"}

var emuArchetypes = []string{"branchy", "memstream", "matrix", "pointer", "callheavy"}

// perLayer is what the traced run reports. The README's layer table
// says which end-to-end metric each one should move, and where.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := func(name string, on []string) metricDef {
		return metricDef{name: name, unit: "ms", better: "lower", on: on}
	}
	m := func(name, unit, better string, on []string) metricDef {
		return metricDef{name: name, unit: unit, better: better, on: on}
	}
	defs := []metricDef{
		// Timing tails and cache tiers: end-to-end in meaning, listed here
		// because they are not defined on every workload and a time that
		// reads the same on every run is refused by the driver.
		ms("op_ms_p90", []string{wlPatchDense, wlRecoverCET, wlServed, wlEmu}),
		ms("cold_ms_p50", onlyServed),
		ms("plan_hit_ms_p50", onlyServed),
		ms("result_hit_ms_p50", onlyServed),
		ms("forwarded_ms_p50", onlyServed),

		ms("elf64.parse_ms", rewriteWorkloads),
		ms("elf64.compose_ms", rewriteWorkloads),
		ms("disasm.recover_ms", rewriteWorkloads),
		m("disasm.mb_s", "MB/s", "higher", rewriteWorkloads),
		m("disasm.insts", "count", "lower", rewriteWorkloads),
		m("disasm.keep_pct", "%", "lower", []string{wlRecoverCET}),
		ms("match.select_ms", rewriteWorkloads),
		m("match.sites", "count", "lower", rewriteWorkloads),
		ms("patch.patchall_ms", rewriteWorkloads),
		m("patch.sites_s", "1/s", "higher", rewriteWorkloads),
		m("patch.b1_pct", "%", "higher", rewriteWorkloads),
		m("patch.b2_pct", "%", "higher", rewriteWorkloads),
		m("patch.t1_pct", "%", "lower", rewriteWorkloads),
		m("patch.t2_pct", "%", "lower", rewriteWorkloads),
		m("patch.t3_pct", "%", "lower", rewriteWorkloads),
		m("patch.failed_pct", "%", "lower", rewriteWorkloads),
		m("patch.trampolines", "count", "lower", rewriteWorkloads),
		ms("group.build_ms", rewriteWorkloads),
		m("group.phys_pct", "%", "lower", rewriteWorkloads),
		m("group.mappings", "count", "lower", rewriteWorkloads),
		ms("loader.encode_ms", rewriteWorkloads),
		ms("loader.buildimage_ms", onlyEmu),
		ms("plan.plan_ms", rewriteWorkloads),
		ms("plan.encode_ms", rewriteWorkloads),
		ms("plan.decode_ms", rewriteWorkloads),
		m("plan.bytes_pct", "%", "lower", rewriteWorkloads),
		ms("e9patch.apply_trusted_ms", rewriteWorkloads),
		ms("e9patch.apply_ms", rewriteWorkloads),
		ms("e9patch.rewrite_ms", []string{wlPatchDense, wlRecoverCET, wlCLI, wlEmu}),
		ms("e9patch.stream_ms", rewriteWorkloads),
		ms("e9patch.glue_ms", rewriteWorkloads),
		m("e9patch.alloc_mb_per_op", "MB", "lower", rewriteWorkloads),
		m("e9patch.mallocs_per_op", "count", "lower", rewriteWorkloads),

		ms("e9tool.user_ms", onlyCLI),
		ms("e9tool.sys_ms", onlyCLI),
		m("e9tool.minflt", "count", "lower", onlyCLI),
		ms("e9tool.startup_ms", onlyCLI),
		m("e9tool.out_mb_s", "MB/s", "higher", onlyCLI),

		ms("server.cold_ms_p90", onlyServed),
		ms("server.plan_hit_ms_p90", onlyServed),
		ms("server.result_hit_ms_p90", onlyServed),
		ms("server.forwarded_ms_p90", onlyServed),
		ms("server.op_ms_p99", onlyServed),
		m("server.cold_share_pct", "%", "lower", onlyServed),
		m("server.plan_hit_share_pct", "%", "lower", onlyServed),
		m("server.result_hit_share_pct", "%", "higher", onlyServed),
		m("server.forwarded_share_pct", "%", "lower", onlyServed),
		m("server.rejected", "count", "lower", onlyServed),
		m("server.coalesced", "count", "lower", onlyServed),
		ms("server.cold_overhead_ms", onlyServed),
		ms("server.plan_hit_overhead_ms", onlyServed),
		ms("cluster.hop_ms", onlyServed),
		m("cluster.owner_ns", "ns", "lower", onlyServed),

		ms("emu.run_ms", onlyEmu),
		m("emu.insts", "count", "lower", onlyEmu),
		m("emu.minst_s", "M/s", "higher", onlyEmu),
	}
	for _, e := range emuEngines {
		defs = append(defs, m("emu.minst_s."+e, "M/s", "higher", onlyEmu))
	}
	for _, a := range emuArchetypes {
		defs = append(defs, m("emu.time_pct."+a, "%", "lower", onlyEmu))
	}
	return append(defs,
		ms("harness.calib_ms_p50", nil),
		m("harness.calib_drift_pct", "%", "lower", nil),
		m("harness.trace_overhead_pct", "%", "lower", nil),
		m("harness.build_s", "s", "lower", onlyCLI),
	)
}

// metricValue is one entry of the printed result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill renders measured values against a registry: every name appears,
// with placeholder where the workload does not define it. A defined
// metric the run failed to produce is an error, never a silent 1.
func fill(defs []metricDef, workload string, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	used := 0
	for _, d := range defs {
		v := placeholder
		m, ok := got[d.name]
		switch {
		case d.definedOn(workload) && !ok:
			return nil, fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		case !d.definedOn(workload) && ok:
			return nil, fmt.Errorf("%s: metric %s is not defined on this workload", workload, d.name)
		case ok:
			if math.IsNaN(m) || math.IsInf(m, 0) {
				return nil, fmt.Errorf("%s: metric %s is %v", workload, d.name, m)
			}
			v = m
			used++
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if used != len(got) {
		for name := range got {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("%s: measured metric %s is not in the registry", workload, name)
			}
		}
	}
	return out, nil
}

// beyond is how many samples must lie past a reported percentile for it
// to be more than one slow op's wall time.
const beyond = 10

// quantile returns the nearest-rank q-quantile of samples. It refuses a
// tail percentile with fewer than ten samples beyond it: p90 needs
// n >= 100, p99 needs n >= 1000. The median needs only one sample.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("quantile of no samples")
	}
	if q != 0.5 {
		tail := math.Min(q, 1-q) * float64(n)
		if tail+1e-9 < beyond {
			return 0, fmt.Errorf("p%g of %d samples has fewer than %d beyond it", 100*q, n, beyond)
		}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(samples []float64) float64 {
	total := 0.0
	for _, v := range samples {
		total += v
	}
	return total
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}

func geomean(vals []float64) float64 {
	logs := 0.0
	for _, v := range vals {
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(vals)))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func tvMs(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }

// selfUsage reads this process's CPU time (ms) and peak RSS (MB).
func selfUsage() (cpuMs, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	// Linux reports ru_maxrss in kilobytes.
	return tvMs(ru.Utime) + tvMs(ru.Stime), float64(ru.Maxrss) / 1024
}
