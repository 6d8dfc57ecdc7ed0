package main

import (
	"bytes"
	"fmt"
	"runtime"

	"e9patch"
)

// rewriteWorkload is patch-dense and recover-cet: one caller rewriting
// five classes of generated binary in process, round-robin.
type rewriteWorkload struct {
	name      string
	specs     []rewriteSpec
	sel       e9patch.Selector
	textBytes int

	cases []rewriteCase
	// ref is each class's output from the warm-up pass. Rewriting is
	// deterministic, so every later output of the class must equal it.
	ref   [][]byte
	sites []int
}

func newPatchDense() *rewriteWorkload {
	return &rewriteWorkload{name: wlPatchDense, specs: patchDenseSpecs, sel: e9patch.SelectAll, textBytes: patchDenseTextBytes}
}

func newRecoverCET() *rewriteWorkload {
	// Sparse A2: the heap writes long enough for a direct jump. Under a
	// superset frontend every offset that decodes as a store is a site, so
	// plain A2 would put a quarter of the op back into tactic search.
	sel, err := e9patch.SelectMatch("heapwrite & len>=5")
	if err != nil {
		panic(err) // a constant expression
	}
	return &rewriteWorkload{name: wlRecoverCET, specs: recoverCETSpecs, sel: sel, textBytes: recoverCETTextBytes}
}

func (w *rewriteWorkload) setup(seed int64) error {
	cases, err := buildRewriteCases(w.specs, w.sel, w.textBytes, seed)
	if err != nil {
		return err
	}
	w.cases, w.ref, w.sites = cases, make([][]byte, len(cases)), make([]int, len(cases))
	for i, c := range cases {
		res, err := e9patch.Rewrite(c.input, c.cfg)
		if err != nil {
			return fmt.Errorf("%s: warm-up: %w", c.name, err)
		}
		if err := checkLayout(c.input, res.Output); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if res.Stats.Total == 0 {
			return fmt.Errorf("%s: nothing was selected", c.name)
		}
		w.ref[i], w.sites[i] = res.Output, res.Stats.Total
	}
	return nil
}

// rewriteOp is one timed op of class i with its output checks.
func (w *rewriteWorkload) rewriteOp(i int) opSample {
	c := w.cases[i]
	s := opSample{class: i, inBytes: len(c.input)}
	var res *e9patch.Result
	var err error
	s.ms, err = opTimer(func() (err error) { res, err = e9patch.Rewrite(c.input, c.cfg); return })
	switch {
	case err != nil:
		s.why = fmt.Sprintf("%s: %v", c.name, err)
	case !bytes.Equal(res.Output, w.ref[i]):
		s.why = c.name + ": the same input gave different bytes"
	case res.Stats.Total != w.sites[i]:
		s.why = fmt.Sprintf("%s: %d sites, %d on the warm-up pass", c.name, res.Stats.Total, w.sites[i])
	default:
		s.ok = true
		s.outBytes, s.sites, s.patched = len(res.Output), res.Stats.Total, res.Stats.Patched()
	}
	return s
}

func (w *rewriteWorkload) measure(seconds float64) (*measurement, error) {
	return timedSection(func(m *measurement) error {
		return rounds(seconds, minRounds, func(int) error {
			for i := range w.cases {
				m.ops = append(m.ops, w.rewriteOp(i))
			}
			return nil
		})
	})
}

func (w *rewriteWorkload) verify() error { return nil }

func (w *rewriteWorkload) info() []string {
	var lines []string
	for i, c := range w.cases {
		lines = append(lines, fmt.Sprintf("%s: input %d B sha256 %s, output %d B sha256 %s, %d sites",
			c.name, len(c.input), shaHex(c.input), len(w.ref[i]), shaHex(w.ref[i]), w.sites[i]))
	}
	return lines
}

func (w *rewriteWorkload) close() {}

// traceRounds is how many traced ops each class gets; a traced op is
// about six rewrites (Rewrite, the replay, Plan, two applies, Stream).
const traceRounds = 2

func (w *rewriteWorkload) trace(tr *tracer, cal *calib, m *measurement) (map[string]float64, error) {
	acc := &layerAcc{}
	op := 0
	for r := 0; r < traceRounds; r++ {
		for i, c := range w.cases {
			cal.probe()
			if err := acc.tracedRewrite(tr, op, c.input, c.cfg, w.ref[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			op++
		}
	}
	cal.probe()
	got := acc.metrics(tr)
	return got, harnessMetrics(got, cal, m, median(tr.durations()["e9patch.rewrite"]), true)
}

// layerAcc sums what traced rewrite ops learn beyond their spans.
type layerAcc struct {
	ops     int
	counts  replayCounts
	plan    planBytes
	glueMs  []float64
	allocMB float64
	mallocs float64
}

// tracedRewrite is one traced op: Rewrite itself under a span with its
// allocation counts, then the phase replay (whose bytes must equal
// want), then the plan, apply and stream routes to the same bytes.
func (a *layerAcc) tracedRewrite(tr *tracer, op int, input []byte, cfg e9patch.Config, want []byte) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	id := tr.begin("e9patch.rewrite", -1, op)
	res, err := e9patch.Rewrite(input, cfg)
	tr.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	if !bytes.Equal(res.Output, want) {
		return fmt.Errorf("Rewrite differs from the reference output")
	}
	a.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	a.mallocs += float64(after.Mallocs - before.Mallocs)

	runtime.GC()
	first := tr.len()
	out, rc, err := replayPhases(tr, op, input, cfg)
	if err != nil {
		return err
	}
	if !bytes.Equal(out, want) {
		return fmt.Errorf("the phase replay composed different bytes than Rewrite")
	}
	if rc.sites != res.Stats.Total {
		return fmt.Errorf("Stats.Total is %d, the selector chose %d", res.Stats.Total, rc.sites)
	}
	a.glueMs = append(a.glueMs, tr.selfMs(first))

	pb, err := replayPlanPaths(tr, op, input, cfg, want)
	if err != nil {
		return err
	}
	a.ops++
	a.plan.plan += pb.plan
	a.plan.output += pb.output
	a.counts.add(rc)
	return nil
}

// metrics renders the rewrite layers' per-op means from the spans and
// the accumulated counts.
func (a *layerAcc) metrics(tr *tracer) map[string]float64 {
	d := tr.durations()
	n := float64(a.ops)
	c := a.counts
	got := map[string]float64{
		"disasm.mb_s":             float64(c.textBytes) / 1e6 / (sum(d["disasm.recover"]) / 1e3),
		"disasm.insts":            float64(c.insts) / n,
		"match.sites":             float64(c.sites) / n,
		"patch.sites_s":           float64(c.sites) / (sum(d["patch.patchall"]) / 1e3),
		"patch.b1_pct":            pct(float64(c.b1), float64(c.sites)),
		"patch.b2_pct":            pct(float64(c.b2), float64(c.sites)),
		"patch.t1_pct":            pct(float64(c.t1), float64(c.sites)),
		"patch.t2_pct":            pct(float64(c.t2), float64(c.sites)),
		"patch.t3_pct":            pct(float64(c.t3), float64(c.sites)),
		"patch.failed_pct":        pct(float64(c.failed), float64(c.sites)),
		"patch.trampolines":       float64(c.trampolines) / n,
		"group.phys_pct":          pct(float64(c.phys), float64(c.virt)),
		"group.mappings":          float64(c.mappings) / n,
		"plan.bytes_pct":          pct(float64(a.plan.plan), float64(a.plan.output)),
		"e9patch.glue_ms":         mean(a.glueMs),
		"e9patch.alloc_mb_per_op": a.allocMB / n,
		"e9patch.mallocs_per_op":  a.mallocs / n,
	}
	if c.decoded > 0 {
		got["disasm.keep_pct"] = pct(float64(c.kept), float64(c.decoded))
	}
	for metric, spanName := range map[string]string{
		"elf64.parse_ms":           "elf64.parse",
		"elf64.compose_ms":         "elf64.compose",
		"disasm.recover_ms":        "disasm.recover",
		"match.select_ms":          "match.select",
		"patch.patchall_ms":        "patch.patchall",
		"group.build_ms":           "group.build",
		"loader.encode_ms":         "loader.encode",
		"plan.plan_ms":             "plan.plan",
		"plan.encode_ms":           "plan.encode",
		"plan.decode_ms":           "plan.decode",
		"e9patch.apply_trusted_ms": "e9patch.apply_trusted",
		"e9patch.apply_ms":         "e9patch.apply",
		"e9patch.rewrite_ms":       "e9patch.rewrite",
		"e9patch.stream_ms":        "e9patch.stream",
	} {
		got[metric] = mean(d[spanName])
	}
	return got
}
