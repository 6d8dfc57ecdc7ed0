package main

import (
	"fmt"
	"slices"
	"time"

	"e9patch"
	"e9patch/internal/emu"
	"e9patch/internal/workload"
)

// instBudget bounds one emulated run; the kernels retire about a
// million instructions each.
const instBudget = 2_000_000_000

// emuWorkload is emu-kernels: the only workload that executes rewritten
// code. An op rewrites a runnable kernel, loads original and rewritten
// images and runs both to completion under the default engine.
type emuWorkload struct {
	cases []rewriteCase
	// timePct is each class's Time%: emulated cycles of the rewritten
	// kernel over the original's. The cycle model is deterministic, so
	// the last op's value is every op's value.
	timePct []float64
	outputs [][]uint64
	ref     [][]byte
}

// emuRun is one execution of a binary to completion.
type emuRun struct {
	output        []uint64
	cycles, insts uint64
	runMs         float64
}

// runBinary loads bin into a fresh machine and runs it. engine "" keeps
// the default (workload.Engine).
func runBinary(tr *tracer, op int, bin []byte, engine string) (emuRun, error) {
	var r emuRun
	m := workload.NewMachine(nil)
	if engine != "" {
		eng, err := emu.NewEngineByName(engine)
		if err != nil {
			return r, err
		}
		m.Engine = eng
	}
	id := tr.begin("loader.buildimage", -1, op)
	entry, err := e9patch.Load(m, bin)
	tr.end(id)
	if err != nil {
		return r, err
	}
	m.RIP = entry
	id = tr.begin("emu.run", -1, op)
	start := time.Now()
	err = m.Run(instBudget)
	r.runMs = msOf(time.Since(start))
	tr.endWith(id, map[string]any{"insts": m.Counters.Instructions, "engine": engine})
	if err != nil {
		return r, err
	}
	r.output, r.cycles, r.insts = m.Output, m.Counters.Cycles, m.Counters.Instructions
	return r, nil
}

// kernelResult is one completed op: the rewritten image, what the
// rewrite did, and the two runs.
type kernelResult struct {
	out           []byte
	sample        opSample
	orig, patched emuRun
}

// kernelOp rewrites class i's kernel and runs both images; the program
// outputs must agree.
func (w *emuWorkload) kernelOp(tr *tracer, op, i int) (kernelResult, error) {
	c := w.cases[i]
	k := kernelResult{sample: opSample{class: i, inBytes: len(c.input)}}
	id := tr.begin("e9patch.rewrite", -1, op)
	res, err := e9patch.Rewrite(c.input, c.cfg)
	tr.end(id)
	if err != nil {
		return k, err
	}
	if k.orig, err = runBinary(tr, op, c.input, ""); err != nil {
		return k, fmt.Errorf("original: %w", err)
	}
	if k.patched, err = runBinary(tr, op, res.Output, ""); err != nil {
		return k, fmt.Errorf("rewritten: %w", err)
	}
	if len(k.orig.output) == 0 || !slices.Equal(k.orig.output, k.patched.output) {
		return k, fmt.Errorf("program output %v, rewritten %v", k.orig.output, k.patched.output)
	}
	k.out = res.Output
	k.sample.outBytes, k.sample.sites, k.sample.patched = len(res.Output), res.Stats.Total, res.Stats.Patched()
	return k, nil
}

func (w *emuWorkload) setup(seed int64) error {
	cases, err := buildKernelCases(seed)
	if err != nil {
		return err
	}
	w.cases = cases
	w.timePct = make([]float64, len(cases))
	w.outputs = make([][]uint64, len(cases))
	w.ref = make([][]byte, len(cases))
	for i, c := range cases {
		k, err := w.kernelOp(nil, 0, i)
		if err != nil {
			return fmt.Errorf("%s: warm-up: %w", c.name, err)
		}
		if k.sample.sites == 0 {
			return fmt.Errorf("%s: nothing was selected", c.name)
		}
		if err := checkLayout(c.input, k.out); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		w.ref[i], w.outputs[i] = k.out, k.orig.output
	}
	return nil
}

func (w *emuWorkload) measure(seconds float64) (*measurement, error) {
	return timedSection(func(m *measurement) error {
		err := rounds(seconds, minRounds, func(int) error {
			for i, c := range w.cases {
				var k kernelResult
				ms, err := opTimer(func() (err error) { k, err = w.kernelOp(nil, 0, i); return })
				s := k.sample
				s.ms = ms
				if err != nil {
					s.why = fmt.Sprintf("%s: %v", c.name, err)
				} else {
					s.ok = true
					w.timePct[i] = pct(float64(k.patched.cycles), float64(k.orig.cycles))
				}
				m.ops = append(m.ops, s)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for i, v := range w.timePct {
			if v == 0 {
				return fmt.Errorf("%s: no op completed", w.cases[i].name)
			}
		}
		m.extra["time_overhead_pct"] = geomean(w.timePct)
		return nil
	})
}

// verify re-runs one op per class under the interpreter, the engine the
// others are checked against: the default engine's program output must
// be the interpreter's, for the original and the rewritten image alike.
func (w *emuWorkload) verify() error {
	for i, c := range w.cases {
		for _, bin := range [][]byte{c.input, w.ref[i]} {
			r, err := runBinary(nil, 0, bin, "interp")
			if err != nil {
				return fmt.Errorf("%s under interp: %w", c.name, err)
			}
			if !slices.Equal(r.output, w.outputs[i]) {
				return fmt.Errorf("%s: interp printed %v, the default engine %v", c.name, r.output, w.outputs[i])
			}
		}
	}
	return nil
}

func (w *emuWorkload) info() []string {
	var lines []string
	for i, c := range w.cases {
		lines = append(lines, fmt.Sprintf("%s: input %d B sha256 %s, output %d B sha256 %s, prints %v, Time%% %.2f",
			c.name, len(c.input), shaHex(c.input), len(w.ref[i]), shaHex(w.ref[i]), w.outputs[i], w.timePct[i]))
	}
	return lines
}

func (w *emuWorkload) close() {}

func (w *emuWorkload) trace(tr *tracer, cal *calib, m *measurement) (map[string]float64, error) {
	var insts, runMs float64
	op := 0
	for r := 0; r < traceRounds; r++ {
		for i, c := range w.cases {
			cal.probe()
			id := tr.begin("op", -1, op)
			k, err := w.kernelOp(tr, op, i)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			insts += float64(k.orig.insts + k.patched.insts)
			runMs += k.orig.runMs + k.patched.runMs
			op++
		}
	}
	cal.probe()
	d := tr.durations()
	nOps := float64(op)
	got := map[string]float64{
		"e9patch.rewrite_ms":   mean(d["e9patch.rewrite"]),
		"loader.buildimage_ms": 2 * mean(d["loader.buildimage"]), // two images per op
		"emu.run_ms":           runMs / nOps,
		"emu.insts":            insts / nOps,
		"emu.minst_s":          insts / 1e6 / (runMs / 1e3),
	}
	for i, a := range emuArchetypes {
		got["emu.time_pct."+a] = w.timePct[i]
	}
	// Every engine on the same image: the memstream kernel retires the
	// most instructions per iteration.
	for _, e := range emuEngines {
		if !slices.Contains(emu.EngineNames(), e) {
			got["emu.minst_s."+e] = placeholder // an engine this build no longer has
			continue
		}
		r, err := runBinary(tr, op, w.cases[1].input, e)
		if err != nil {
			return nil, fmt.Errorf("engine %s: %w", e, err)
		}
		got["emu.minst_s."+e] = float64(r.insts) / 1e6 / (r.runMs / 1e3)
	}
	return got, harnessMetrics(got, cal, m, median(d["op"]), true)
}
