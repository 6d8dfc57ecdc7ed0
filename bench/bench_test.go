package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"e9patch"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed int64) []request {
		s := newSchedule(seed)
		out := make([]request, 10*blockSize)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b, other := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// Every block carries the mix exactly, and no cold stamp repeats.
	stamps := map[uint64]bool{}
	for blk := 0; blk < len(a); blk += blockSize {
		var n [4]int
		for _, r := range a[blk : blk+blockSize] {
			n[r.kind]++
			if r.kind == reqCold {
				if stamps[r.stamp] {
					t.Fatalf("cold stamp %d repeats", r.stamp)
				}
				stamps[r.stamp] = true
			}
		}
		if n != [4]int{blockHit, blockForwarded, blockPlan, blockCold} {
			t.Fatalf("block %d has mix %v", blk/blockSize, n)
		}
	}
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	build := func(seed int64) (rewrites, kernels [][]byte) {
		cases, err := buildRewriteCases(recoverCETSpecs, e9patch.SelectJumps, 8192, seed)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := buildKernelCases(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			rewrites = append(rewrites, c.input)
		}
		for _, k := range ks {
			kernels = append(kernels, k.input)
		}
		return rewrites, kernels
	}
	r3, k3 := build(3)
	again, kAgain := build(3)
	r4, k4 := build(4)
	if !reflect.DeepEqual(r3, again) || !reflect.DeepEqual(k3, kAgain) {
		t.Fatal("the same seed gave different bytes")
	}
	for i := range r3 {
		if bytes.Equal(r3[i], r4[i]) {
			t.Fatalf("class %d: seeds 3 and 4 gave the same binary", i)
		}
	}
	// A kernel differs between seeds only in its iteration count, which
	// two seeds may draw alike for one class, not for all five.
	if reflect.DeepEqual(k3, k4) {
		t.Fatal("seeds 3 and 4 gave the same five kernels")
	}
	// Two classes of one profile still get binaries of their own.
	if bytes.Equal(r3[0], r3[3]) {
		t.Fatal("the two nginx-cet classes share a binary")
	}
}

func TestColdBodiesAreFreshAndStampedInData(t *testing.T) {
	_, bin, err := buildProfile("make", "t", 8192)
	if err != nil {
		t.Fatal(err)
	}
	off, err := dataOffset(bin)
	if err != nil {
		t.Fatal(err)
	}
	c := &servedCorpus{cold: [][]byte{bin}, coldData: []int{off}}
	one, two := c.body(request{kind: reqCold, stamp: 1}), c.body(request{kind: reqCold, stamp: 2})
	if bytes.Equal(one, two) || bytes.Equal(one, bin) {
		t.Fatal("stamped bodies are not distinct")
	}
	// The stamp touches .data only, so what any rewrite preserves still
	// holds against the stamped input.
	res, err := e9patch.Rewrite(one, directConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLayout(one, res.Output); err != nil {
		t.Fatal(err)
	}
	if err := checkLayout(two, res.Output); err == nil {
		t.Fatal("checkLayout accepted an output for the wrong input")
	}
}

func TestQuantileWantsTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if _, err := quantile(samples[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples was not refused")
	}
	p90, err := quantile(samples, 0.9)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p90, err)
	}
	if _, err := quantile(samples, 0.99); err == nil {
		t.Fatal("p99 of 100 samples was not refused")
	}
	if p50, err := quantile(samples[:1], 0.5); err != nil || p50 != 100 {
		t.Fatalf("median of one sample = %v, %v", p50, err)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestClassifyReadsTheHeaders(t *testing.T) {
	for _, c := range []struct {
		cache, node string
		want        int
	}{
		{"hit", "", classHit},
		{"plan", "", classPlan},
		{"miss", "", classCold},
		{"hit", "http://127.0.0.1:1", classForwarded},
		{"miss", "http://127.0.0.1:1", classForwarded},
		{"coalesced", "", classOther},
		{"peer-plan", "", classOther},
		{"", "", classOther},
	} {
		if got := classify(c.cache, c.node); got != c.want {
			t.Errorf("classify(%q, %q) = %s, want %s", c.cache, c.node, classNames[got], classNames[c.want])
		}
	}
}

// The phase replay is only evidence of where Rewrite's time goes while
// it composes Rewrite's bytes, under every recovery frontend.
func TestReplayComposesRewritesBytes(t *testing.T) {
	for _, mode := range []e9patch.DisasmMode{e9patch.DisasmLinear, e9patch.DisasmSuperset, e9patch.DisasmSupersetCET} {
		cases, err := buildRewriteCases([]rewriteSpec{{"libcrypto-cet.so", mode}}, e9patch.SelectHeapWrites, 8192, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := cases[0]
		res, err := e9patch.Rewrite(c.input, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		out, rc, err := replayPhases(tr, 0, c.input, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, res.Output) {
			t.Errorf("%s: the replay composed different bytes", mode)
		}
		if rc.sites != res.Stats.Total || rc.sites == 0 {
			t.Errorf("%s: replay selected %d sites, Rewrite %d", mode, rc.sites, res.Stats.Total)
		}
		if _, err := replayPlanPaths(tr, 0, c.input, c.cfg, res.Output); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
		if err := checkLayout(c.input, res.Output); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
		// One span per phase, all children of the replay's root.
		d := tr.durations()
		for _, name := range []string{"replay", "elf64.parse", "disasm.recover", "match.select", "va.reserve",
			"patch.patchall", "group.build", "loader.encode", "elf64.compose", "plan.plan", "e9patch.stream"} {
			if len(d[name]) != 1 {
				t.Errorf("%s: %d spans named %s", mode, len(d[name]), name)
			}
		}
		if self := tr.selfMs(0); self < 0 || self > d["replay"][0] {
			t.Errorf("%s: replay self time %v outside [0, %v]", mode, self, d["replay"][0])
		}
	}
}

// allDefined measures every metric a workload defines, as a run would.
func allDefined(defs []metricDef, workload string) map[string]float64 {
	got := map[string]float64{}
	for i, d := range defs {
		if d.definedOn(workload) {
			got[d.name] = float64(i) + 0.5
		}
	}
	return got
}

func TestResultCarriesEveryMetricOnlyWhereDefined(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, w := range workloadNames {
			got := allDefined(defs, w)
			out, err := fill(defs, w, got)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(defs) {
				t.Fatalf("%s: %d metrics printed, %d named", w, len(out), len(defs))
			}
			for _, d := range defs {
				mv, ok := out[d.name]
				switch {
				case !ok || mv.Unit != d.unit:
					t.Errorf("%s: %s printed as %+v, want unit %s", w, d.name, mv, d.unit)
				case d.definedOn(w) && mv.Value != got[d.name]:
					t.Errorf("%s: %s = %v, measured %v", w, d.name, mv.Value, got[d.name])
				case !d.definedOn(w) && mv.Value != placeholder:
					t.Errorf("%s: %s is not defined here but reads %v", w, d.name, mv.Value)
				}
			}
		}
	}
	// A value for a metric the workload does not define is a bug in the
	// workload, and so is a defined metric left unmeasured.
	got := allDefined(endToEnd, wlPatchDense)
	got["time_overhead_pct"] = 240
	if _, err := fill(endToEnd, wlPatchDense, got); err == nil {
		t.Error("time_overhead_pct was accepted on patch-dense")
	}
	got = allDefined(endToEnd, wlEmu)
	delete(got, "time_overhead_pct")
	if _, err := fill(endToEnd, wlEmu, got); err == nil {
		t.Error("a missing time_overhead_pct was accepted on emu-kernels")
	}
	got = allDefined(endToEnd, wlEmu)
	got["no_such_metric"] = 1
	if _, err := fill(endToEnd, wlEmu, got); err == nil {
		t.Error("an unregistered metric was accepted")
	}
}

func TestMetricNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("%s is named twice", d.name)
		}
		seen[d.name] = true
		for _, w := range d.on {
			if !slices.Contains(workloadNames, w) {
				t.Errorf("%s is defined on unknown workload %s", d.name, w)
			}
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// BENCHMARK.json is what the driver reads and the registry is what the
// program prints; they must say the same.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, %d in the registry", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: listed %+v, registry %s %s %s", kind, i, m, d.name, d.unit, d.better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s: bound listed %v, registry %v", d.name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

func TestTraceFlagStandsAlone(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"-workload emu-kernels -trace", "-workload emu-kernels -trace 1"},
		{"-trace -seed 2", "-trace 1 -seed 2"},
		{"--trace 0 --seed 2", "--trace 0 --seed 2"},
		{"--workload x --seed 3 --seconds 10 --trace 1", "--workload x --seed 3 --seconds 10 --trace 1"},
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("%q -> %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCalibDrift(t *testing.T) {
	c := &calib{samples: []float64{10, 10, 10, 10, 12, 12}}
	p50, drift := c.report()
	if p50 != 10 || drift != 20 {
		t.Fatalf("report() = %v, %v; want 10, 20", p50, drift)
	}
}

func TestLauncherReportsItsChild(t *testing.T) {
	var out bytes.Buffer
	if err := launchMain([]string{"sh", "-c", "echo hi"}, &out); err != nil {
		t.Fatal(err)
	}
	var r childRun
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatalf("%q: %v", out.Bytes(), err)
	}
	if r.Err != "" || r.Stdout != "hi\n" || r.WallMs <= 0 || r.PeakMB <= 0 {
		t.Errorf("a child that succeeds: %+v", r)
	}
	out.Reset()
	if err := launchMain([]string{"sh", "-c", "echo no >&2; exit 3"}, &out); err != nil {
		t.Fatal(err)
	}
	r = childRun{}
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatalf("%q: %v", out.Bytes(), err)
	}
	if !strings.Contains(r.Err, "exit status 3") || !strings.Contains(r.Err, "no") {
		t.Errorf("a child that fails: %+v", r)
	}
}
