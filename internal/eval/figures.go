package eval

import (
	"fmt"
	"io"
	"math"

	"e9patch"
	"e9patch/internal/emu"
	"e9patch/internal/loader"
	"e9patch/internal/lowfat"
	"e9patch/internal/patch"
	"e9patch/internal/workload"
)

// Browser JIT fractions for the Figure 4 model: FireFox spends a much
// larger share of DOM-benchmark time in JIT'ed / non-instrumented code
// (§6.2's explanation for its lower sensitivity).
const (
	ChromeJitPct  = 8
	FireFoxJitPct = 55
)

// Fig4Point is one Dromaeo suite measurement.
type Fig4Point struct {
	Suite   string
	Chrome  float64 // relative overhead, x100
	FireFox float64
}

// dromaeoOverhead measures one suite/browser combination.
func dromaeoOverhead(suite workload.DromaeoSuite, jitPct int, tmpl e9patch.Config, lowfatHeap bool) (float64, error) {
	prog, err := workload.BuildDromaeo(suite, true, jitPct)
	if err != nil {
		return 0, err
	}
	cfg := tmpl
	cfg.Select = e9patch.SelectHeapWrites
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
		prep = func(m *emu.Machine) { lowfat.Install(m, workload.RTMalloc, workload.RTFree) }
	}
	orig, err := run(prog.ELF, nil)
	if err != nil {
		return 0, err
	}
	patched, err := run(res.Output, prep)
	if err != nil {
		return 0, err
	}
	if orig.Output[0] != patched.Output[0] {
		return 0, fmt.Errorf("dromaeo %s: checksum diverged", suite.Name)
	}
	return 100 * float64(patched.Counters.Cycles) / float64(orig.Counters.Cycles), nil
}

// Figure4 regenerates the Dromaeo DOM overhead series for Chrome and
// FireFox with the empty heap-write instrumentation (A2).
func Figure4(opt Options, progress io.Writer) ([]Fig4Point, error) {
	opt = opt.withDefaults()
	if opt.Iters > 0 {
		workload.KernelIters = opt.Iters
	}
	var out []Fig4Point
	for _, s := range workload.DromaeoSuites {
		if progress != nil {
			fmt.Fprintf(progress, "# figure4: %s\n", s.Name)
		}
		c, err := dromaeoOverhead(s, ChromeJitPct, e9patch.Config{}, false)
		if err != nil {
			return nil, err
		}
		f, err := dromaeoOverhead(s, FireFoxJitPct, e9patch.Config{}, false)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig4Point{Suite: s.Name, Chrome: c, FireFox: f})
	}
	return out, nil
}

// PrintFigure4 renders the Figure 4 series including the geometric
// mean.
func PrintFigure4(w io.Writer, pts []Fig4Point) {
	fmt.Fprintf(w, "%-18s %10s %10s\n", "Suite", "Chrome%", "FireFox%")
	var cs, fs []float64
	for _, p := range pts {
		fmt.Fprintf(w, "%-18s %10.1f %10.1f\n", p.Suite, p.Chrome, p.FireFox)
		cs = append(cs, p.Chrome)
		fs = append(fs, p.FireFox)
	}
	fmt.Fprintf(w, "%-18s %10.1f %10.1f\n", "Geom.Mean", geoMean(cs), geoMean(fs))
}

// Fig5Row is one Figure 5 bar pair: empty A2 instrumentation vs the
// LowFat redzone check.
type Fig5Row struct {
	Name   string
	Empty  float64
	LowFat float64
}

// Figure5 regenerates the SPEC + browser LowFat hardening overheads.
func Figure5(opt Options, progress io.Writer) ([]Fig5Row, error) {
	opt = opt.withDefaults()
	if opt.Iters > 0 {
		workload.KernelIters = opt.Iters
	}
	var rows []Fig5Row
	var empties, lows []float64
	for _, p := range workload.SPECProfiles {
		if progress != nil {
			fmt.Fprintf(progress, "# figure5: %s\n", p.Name)
		}
		empty, err := kernelOverhead(p, a2, e9patch.Config{}, false)
		if err != nil {
			return nil, err
		}
		lf, err := kernelOverhead(p, a2, e9patch.Config{Template: lowfat.CheckTemplate{}}, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{Name: p.Name, Empty: empty, LowFat: lf})
		empties = append(empties, empty)
		lows = append(lows, lf)
	}
	rows = append(rows, Fig5Row{Name: "SPEC Mean", Empty: mean(empties), LowFat: mean(lows)})

	// Browser means over the Dromaeo suites.
	for _, b := range []struct {
		name string
		jit  int
	}{{"Chrome Mean", ChromeJitPct}, {"FireFox Mean", FireFoxJitPct}} {
		if progress != nil {
			fmt.Fprintf(progress, "# figure5: %s\n", b.name)
		}
		var es, ls []float64
		for _, s := range workload.DromaeoSuites {
			e, err := dromaeoOverhead(s, b.jit, e9patch.Config{}, false)
			if err != nil {
				return nil, err
			}
			l, err := dromaeoOverhead(s, b.jit, e9patch.Config{Template: lowfat.CheckTemplate{}}, true)
			if err != nil {
				return nil, err
			}
			es = append(es, e)
			ls = append(ls, l)
		}
		rows = append(rows, Fig5Row{Name: b.name, Empty: geoMean(es), LowFat: geoMean(ls)})
	}
	return rows, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// PrintFigure5 renders the Figure 5 series.
func PrintFigure5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "%-14s %10s %10s\n", "Benchmark", "A2-empty%", "LowFat%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.1f %10.1f\n", r.Name, r.Empty, r.LowFat)
	}
}

// GroupingAblation is the §6.1 file-size experiment: average Size% over
// the SPEC set with physical page grouping on (M=1) versus off.
type GroupingAblation struct {
	App            application
	GroupedSizePct float64
	NaiveSizePct   float64
}

// AblationGrouping measures both applications over the SPEC profiles.
func AblationGrouping(opt Options, progress io.Writer) ([]GroupingAblation, error) {
	opt = opt.withDefaults()
	var out []GroupingAblation
	for _, app := range []application{a1, a2} {
		var g, n []float64
		for _, p := range workload.SPECProfiles {
			if progress != nil {
				fmt.Fprintf(progress, "# grouping: %s/%s\n", p.Name, app)
			}
			resG, err := rewriteProfile(p, app, opt.Scale, nil)
			if err != nil {
				return nil, err
			}
			resN, err := rewriteProfile(p, app, opt.Scale, func(c *e9patch.Config) { c.Granularity = -1 })
			if err != nil {
				return nil, err
			}
			g = append(g, resG.SizePercent())
			n = append(n, resN.SizePercent())
		}
		out = append(out, GroupingAblation{App: app, GroupedSizePct: mean(g), NaiveSizePct: mean(n)})
	}
	return out, nil
}

// GranularityPoint is one §4 granularity trade-off measurement.
type GranularityPoint struct {
	M        int
	Mappings int
	// MappingsFullScale extrapolates to the paper's full binary size
	// when the experiment ran scaled down.
	MappingsFullScale int
	PhysMB            float64
	UnderLimit        bool
}

// AblationGranularity sweeps M for the Chrome profile under A2.
func AblationGranularity(opt Options, progress io.Writer) ([]GranularityPoint, error) {
	opt = opt.withDefaults()
	p, err := workload.ProfileByName("Chrome")
	if err != nil {
		return nil, err
	}
	var out []GranularityPoint
	for _, m := range []int{1, 2, 4, 8, 16, 32, 64} {
		if progress != nil {
			fmt.Fprintf(progress, "# granularity: M=%d\n", m)
		}
		res, err := rewriteProfile(p, a2, opt.Scale, func(c *e9patch.Config) { c.Granularity = m })
		if err != nil {
			return nil, err
		}
		// Linear extrapolation saturates: trampolines live inside one
		// rel32 span (2^32 bytes) plus the text itself, so the block
		// count can never exceed that span over the block size — the
		// structural fact behind the paper's "M >= 64 always fits"
		// claim (2^32 / (64 * 4096) = 16384 < 65536).
		blockSize := uint64(m) * 4096
		structural := int((uint64(1)<<32 + uint64(p.SizeMB*1e6)) / blockSize)
		full := int(float64(res.Mappings) / opt.Scale)
		if full > structural {
			full = structural
		}
		out = append(out, GranularityPoint{
			M:                 m,
			Mappings:          res.Mappings,
			MappingsFullScale: full,
			PhysMB:            float64(res.Group.PhysBytes()) / 1e6,
			UnderLimit:        full <= loader.MapCountLimit,
		})
	}
	return out, nil
}

// PIEComparison is the §6.1 PIE / .bss coverage experiment: one
// profile rewritten at its native kind and forced-PIE.
type PIEComparison struct {
	Name                string
	App                 application
	NativeBase, PIEBase float64
	NativeSucc, PIESucc float64
}

// AblationPIE compares coverage for representative profiles (including
// the gamess/zeusmp L1 cases, which reach 100% when built as PIE).
func AblationPIE(opt Options, progress io.Writer) ([]PIEComparison, error) {
	opt = opt.withDefaults()
	var out []PIEComparison
	for _, name := range []string{"gcc", "perlbench", "gamess", "zeusmp"} {
		p, err := workload.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		for _, app := range []application{a1, a2} {
			if progress != nil {
				fmt.Fprintf(progress, "# pie: %s/%s\n", name, app)
			}
			native, err := rewriteProfile(p, app, opt.Scale, nil)
			if err != nil {
				return nil, err
			}
			pie := p
			pie.Kind = workload.KindPIE
			pieRes, err := rewriteAs(pie, p, app, opt.Scale)
			if err != nil {
				return nil, err
			}
			out = append(out, PIEComparison{
				Name: name, App: app,
				NativeBase: native.Stats.BasePercent(),
				PIEBase:    pieRes.Stats.BasePercent(),
				NativeSucc: native.Stats.SuccPercent(),
				PIESucc:    pieRes.Stats.SuccPercent(),
			})
		}
	}
	return out, nil
}

// rewriteAs builds a binary with mixP's (calibrated) instruction mix
// but buildP's ELF kind, then rewrites it.
func rewriteAs(buildP, mixP workload.Profile, app application, scale float64) (*e9patch.Result, error) {
	mix, err := calibratedMix(mixP)
	if err != nil {
		return nil, err
	}
	prog, err := workload.BuildStaticMix(mixP, scale, buildP.Kind, mix)
	if err != nil {
		return nil, err
	}
	return e9patch.Rewrite(prog.ELF, baseConfig(buildP, app, scale))
}

// B0Comparison contrasts the jump-based tactics with the int3/SIGTRAP
// baseline (§2.1.1): same kernel, same patch set.
type B0Comparison struct {
	JumpPct   float64 // Time% with B1/B2/T1-T3
	SignalPct float64 // Time% with B0 for every location
	Factor    float64 // SignalPct / JumpPct
}

// AblationB0 measures the branchy kernel under A1.
func AblationB0(opt Options) (B0Comparison, error) {
	opt = opt.withDefaults()
	if opt.Iters > 0 {
		workload.KernelIters = opt.Iters
	}
	p, err := workload.ProfileByName("perlbench")
	if err != nil {
		return B0Comparison{}, err
	}
	jump, err := kernelOverhead(p, a1, e9patch.Config{}, false)
	if err != nil {
		return B0Comparison{}, err
	}
	sig, err := kernelOverhead(p, a1, e9patch.Config{
		Patch: patch.Options{ForceB0: true, B0Fallback: true},
	}, false)
	if err != nil {
		return B0Comparison{}, err
	}
	return B0Comparison{JumpPct: jump, SignalPct: sig, Factor: sig / jump}, nil
}

// AccuracyPoint is the §1 motivation: a 99.9%-accurate indirect-jump
// analysis applied n times.
type AccuracyPoint struct {
	Jumps     int
	Effective float64 // 0.999^n, in percent
}

// MotivationAccuracy computes the §1 decay table (Chrome/FireFox have
// >25000 indirect jumps apiece).
func MotivationAccuracy() []AccuracyPoint {
	var out []AccuracyPoint
	for _, n := range []int{1, 10, 100, 1000, 10000, 25000} {
		out = append(out, AccuracyPoint{
			Jumps:     n,
			Effective: 100 * math.Pow(0.999, float64(n)),
		})
	}
	return out
}
