// Package eval drives the paper's evaluation: it regenerates Table 1,
// Figure 4 and Figure 5, and the supporting ablations (§4 grouping
// granularity, §6.1 file-size/grouping, PIE vs non-PIE, the B0
// baseline, and the §1 control-flow-recovery accuracy motivation).
//
// Every experiment is deterministic. Absolute numbers come from the
// emulator's documented cycle model and the synthetic workload
// geometry (DESIGN.md §2); the comparisons recorded in EXPERIMENTS.md
// are about shape: who wins, by roughly what factor, and where the
// crossovers fall.
package eval

import (
	"fmt"
	"io"
	"math"

	"e9patch"
	"e9patch/internal/emu"
	"e9patch/internal/lowfat"
	"e9patch/internal/patch"
	"e9patch/internal/va"
	"e9patch/internal/workload"
)

// Options configures an evaluation run.
type Options struct {
	// Scale multiplies the paper's binary sizes for the static
	// profiles (1.0 = full size; the default 0.25 keeps a full Table 1
	// run in the minutes range).
	Scale float64
	// Iters sets the kernel iteration count (0 keeps the default).
	Iters int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	return o
}

// application selects the instrumentation application.
type application int

// The paper's two instrumentation applications.
const (
	a1 application = iota // all jmp/jcc instructions
	a2                    // all heap-write instructions
)

func (a application) String() string {
	if a == a1 {
		return "A1"
	}
	return "A2"
}

func (a application) selector() e9patch.Selector {
	if a == a1 {
		return e9patch.SelectJumps
	}
	return e9patch.SelectHeapWrites
}

// baseConfig assembles the rewrite configuration for a profile.
func baseConfig(p workload.Profile, app application, scale float64) e9patch.Config {
	cfg := e9patch.Config{
		Select:    app.selector(),
		ReserveVA: workload.ReserveVA(),
	}
	if p.Kind == workload.KindShared {
		// The dynamic linker owns the space below a shared object's
		// load address: negative rel32 targets are unusable (§5.1).
		cfg.ReserveVA = append(cfg.ReserveVA, [2]uint64{va.DefaultMin, e9patch.PIEBase})
	}
	if p.DataInText {
		cfg.SkipPrefix = workload.DataPrefixBytes(p, scale)
	}
	return cfg
}

// rewriteProfile builds a profile's static binary (with pilot-calibrated
// encoding fractions) and rewrites it.
func rewriteProfile(p workload.Profile, app application, scale float64, mutate func(*e9patch.Config)) (*e9patch.Result, error) {
	mix, err := calibratedMix(p)
	if err != nil {
		return nil, err
	}
	prog, err := workload.BuildStaticMix(p, scale, p.Kind, mix)
	if err != nil {
		return nil, err
	}
	cfg := baseConfig(p, app, scale)
	if mutate != nil {
		mutate(&cfg)
	}
	return e9patch.Rewrite(prog.ELF, cfg)
}

// runOverhead runs a binary and returns machine state.
func run(bin []byte, prep func(m *emu.Machine)) (*emu.Machine, error) {
	m := workload.NewMachine(nil)
	workload.BindJit(m)
	if prep != nil {
		prep(m)
	}
	f, err := e9patch.Load(m, bin)
	if err != nil {
		return nil, err
	}
	m.RIP = f
	if err := m.Run(2_000_000_000); err != nil {
		return nil, err
	}
	return m, nil
}

// kernelOverhead measures the Time%% ratio (patched cycles / original
// cycles x100) for a profile's kernel under the given instrumentation.
func kernelOverhead(p workload.Profile, app application, tmpl e9patch.Config, lowfatHeap bool) (float64, error) {
	prog, err := workload.BuildKernelTuned(p.Kernel, p.Kind == workload.KindPIE, workload.TuningFor(p))
	if err != nil {
		return 0, err
	}
	cfg := tmpl
	cfg.Select = app.selector()
	cfg.ReserveVA = append(cfg.ReserveVA, workload.ReserveVA()...)
	if lowfatHeap {
		cfg.ReserveVA = append(cfg.ReserveVA, lowfat.ReserveVA()...)
	}
	res, err := e9patch.Rewrite(prog.ELF, cfg)
	if err != nil {
		return 0, err
	}
	var prep func(m *emu.Machine)
	if lowfatHeap {
		prep = func(m *emu.Machine) {
			lowfat.Install(m, workload.RTMalloc, workload.RTFree)
		}
	}
	orig, err := run(prog.ELF, nil)
	if err != nil {
		return 0, err
	}
	patched, err := run(res.Output, prep)
	if err != nil {
		return 0, err
	}
	if lowfatHeap {
		// The hardened run must stay violation-free on correct code.
		if v := lowfat.Violations(patched); v != 0 {
			return 0, fmt.Errorf("eval %s: %d false-positive violations", p.Name, v)
		}
	}
	// Behavioural equivalence is part of every measurement.
	if len(orig.Output) != len(patched.Output) {
		return 0, fmt.Errorf("eval %s: output length diverged", p.Name)
	}
	for i := range orig.Output {
		if orig.Output[i] != patched.Output[i] {
			return 0, fmt.Errorf("eval %s: output diverged at %d", p.Name, i)
		}
	}
	return 100 * float64(patched.Counters.Cycles) / float64(orig.Counters.Cycles), nil
}

// AppStats is one application's half of a Table 1 row.
type AppStats struct {
	Locs                   int
	Base, T1, T2, T3, Succ float64
	TimePct                float64 // 0 when not measured (non-SPEC rows)
	SizePct                float64
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Profile workload.Profile
	A1, A2  AppStats
}

// appStats converts rewrite results into Table 1 columns.
func appStats(res *e9patch.Result) AppStats {
	s := res.Stats
	return AppStats{
		Locs:    s.Total,
		Base:    s.BasePercent(),
		T1:      s.Percent(s.ByTactic[patch.TacticT1]),
		T2:      s.Percent(s.ByTactic[patch.TacticT2]),
		T3:      s.Percent(s.ByTactic[patch.TacticT3]),
		Succ:    s.SuccPercent(),
		SizePct: res.SizePercent(),
	}
}

// Table1 regenerates the patching statistics for the given profiles.
// Time%% is measured only for SPEC rows (as in the paper).
func Table1(opt Options, profiles []workload.Profile, progress io.Writer) ([]Table1Row, error) {
	opt = opt.withDefaults()
	if opt.Iters > 0 {
		workload.KernelIters = opt.Iters
	}
	var rows []Table1Row
	for _, p := range profiles {
		if progress != nil {
			fmt.Fprintf(progress, "# table1: %s\n", p.Name)
		}
		row := Table1Row{Profile: p}
		for _, app := range []application{a1, a2} {
			res, err := rewriteProfile(p, app, opt.Scale, nil)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.Name, app, err)
			}
			st := appStats(res)
			if p.IsSPEC() {
				t, err := kernelOverhead(p, app, e9patch.Config{}, false)
				if err != nil {
					return nil, fmt.Errorf("%s/%s time: %w", p.Name, app, err)
				}
				st.TimePct = t
			}
			if app == a1 {
				row.A1 = st
			} else {
				row.A2 = st
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable1 renders rows in the paper's format.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-12s %7s | %8s %6s %5s %5s %5s %6s %7s %7s | %8s %6s %5s %5s %5s %6s %7s %7s\n",
		"Binary", "Size", "A1#Loc", "Base%", "T1%", "T2%", "T3%", "Succ%", "Time%", "Size%",
		"A2#Loc", "Base%", "T1%", "T2%", "T3%", "Succ%", "Time%", "Size%")
	tp := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %6.2fM | %8d %6.2f %5.2f %5.2f %5.2f %6.2f %7s %7.2f | %8d %6.2f %5.2f %5.2f %5.2f %6.2f %7s %7.2f\n",
			r.Profile.Name, r.Profile.SizeMB,
			r.A1.Locs, r.A1.Base, r.A1.T1, r.A1.T2, r.A1.T3, r.A1.Succ, tp(r.A1.TimePct), r.A1.SizePct,
			r.A2.Locs, r.A2.Base, r.A2.T1, r.A2.T2, r.A2.T3, r.A2.Succ, tp(r.A2.TimePct), r.A2.SizePct)
	}
	// Aggregate row over what was run.
	var a1loc, a2loc int
	var agg [16]float64
	var nTime1, nTime2 int
	for _, r := range rows {
		a1loc += r.A1.Locs
		a2loc += r.A2.Locs
		agg[0] += r.A1.Base
		agg[1] += r.A1.T1
		agg[2] += r.A1.T2
		agg[3] += r.A1.T3
		agg[4] += r.A1.Succ
		if r.A1.TimePct > 0 {
			agg[5] += r.A1.TimePct
			nTime1++
		}
		agg[6] += r.A1.SizePct
		agg[8] += r.A2.Base
		agg[9] += r.A2.T1
		agg[10] += r.A2.T2
		agg[11] += r.A2.T3
		agg[12] += r.A2.Succ
		if r.A2.TimePct > 0 {
			agg[13] += r.A2.TimePct
			nTime2++
		}
		agg[14] += r.A2.SizePct
	}
	n := float64(len(rows))
	if n == 0 {
		return
	}
	t1, t2 := "-", "-"
	if nTime1 > 0 {
		t1 = fmt.Sprintf("%.2f", agg[5]/float64(nTime1))
	}
	if nTime2 > 0 {
		t2 = fmt.Sprintf("%.2f", agg[13]/float64(nTime2))
	}
	fmt.Fprintf(w, "%-12s %7s | %8d %6.2f %5.2f %5.2f %5.2f %6.2f %7s %7.2f | %8d %6.2f %5.2f %5.2f %5.2f %6.2f %7s %7.2f\n",
		"Total/Avg%", "",
		a1loc, agg[0]/n, agg[1]/n, agg[2]/n, agg[3]/n, agg[4]/n, t1, agg[6]/n,
		a2loc, agg[8]/n, agg[9]/n, agg[10]/n, agg[11]/n, agg[12]/n, t2, agg[14]/n)
}

// geoMean returns the geometric mean of positive values.
func geoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}
