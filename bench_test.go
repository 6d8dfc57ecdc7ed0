// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per artefact, plus micro-benchmarks of the core
// pipeline stages. The experiment benchmarks run at a reduced binary
// scale so `go test -bench=.` finishes in minutes; `cmd/e9bench` runs
// the same drivers at any scale (use -full for the paper's sizes) and
// prints the complete tables.
//
// Custom metrics reported:
//
//	cov%      patching coverage (Table 1 Succ%)
//	base%     baseline (B1+B2) coverage
//	size%     output/input file size
//	time%     patched/original cycle ratio
package e9patch_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"e9patch"
	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/eval"
	"e9patch/internal/lowfat"
	"e9patch/internal/workload"
)

// benchOpt keeps experiment benchmarks fast; EXPERIMENTS.md records
// full runs via cmd/e9bench.
var benchOpt = eval.Options{Scale: 0.02, Iters: 4000}

// benchProfiles is a representative Table 1 slice: integer SPEC,
// Fortran SPEC with huge .bss, PIE, and a shared object.
func benchProfiles(b *testing.B) []workload.Profile {
	b.Helper()
	var out []workload.Profile
	for _, n := range []string{"perlbench", "gamess", "vim", "libc.so"} {
		p, err := workload.ProfileByName(n)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// BenchmarkTable1A1 regenerates Table 1's jump-instrumentation half
// over the representative profile slice.
func BenchmarkTable1A1(b *testing.B) {
	benchTable1(b, eval.A1)
}

// BenchmarkTable1A2 regenerates Table 1's heap-write half.
func BenchmarkTable1A2(b *testing.B) {
	benchTable1(b, eval.A2)
}

func benchTable1(b *testing.B, app eval.App) {
	profiles := benchProfiles(b)
	var cov, base, size float64
	for i := 0; i < b.N; i++ {
		cov, base, size = 0, 0, 0
		for _, p := range profiles {
			res, err := eval.RewriteProfile(p, app, benchOpt.Scale, nil)
			if err != nil {
				b.Fatal(err)
			}
			cov += res.Stats.SuccPercent()
			base += res.Stats.BasePercent()
			size += res.SizePercent()
		}
	}
	n := float64(len(profiles))
	b.ReportMetric(cov/n, "cov%")
	b.ReportMetric(base/n, "base%")
	b.ReportMetric(size/n, "size%")
}

// BenchmarkTable1Time regenerates the Table 1 Time% columns for one
// SPEC row (perlbench kernel, both applications).
func BenchmarkTable1Time(b *testing.B) {
	p, err := workload.ProfileByName("perlbench")
	if err != nil {
		b.Fatal(err)
	}
	workload.KernelIters = benchOpt.Iters
	var t1, t2 float64
	for i := 0; i < b.N; i++ {
		if t1, err = eval.KernelOverhead(p, eval.A1, e9patch.Config{}, false); err != nil {
			b.Fatal(err)
		}
		if t2, err = eval.KernelOverhead(p, eval.A2, e9patch.Config{}, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t1, "A1time%")
	b.ReportMetric(t2, "A2time%")
}

// BenchmarkFigure4Dromaeo regenerates the Figure 4 browser series.
func BenchmarkFigure4Dromaeo(b *testing.B) {
	workload.KernelIters = benchOpt.Iters
	var chrome, firefox float64
	for i := 0; i < b.N; i++ {
		pts, err := eval.Figure4(benchOpt, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var cs, fs []float64
		for _, p := range pts {
			cs = append(cs, p.Chrome)
			fs = append(fs, p.FireFox)
		}
		chrome, firefox = eval.GeoMean(cs), eval.GeoMean(fs)
	}
	b.ReportMetric(chrome, "chrome%")
	b.ReportMetric(firefox, "firefox%")
}

// BenchmarkFigure5LowFat regenerates the Figure 5 hardening series for
// a SPEC subset (one kernel per archetype).
func BenchmarkFigure5LowFat(b *testing.B) {
	workload.KernelIters = benchOpt.Iters
	names := []string{"perlbench", "bzip2", "gamess", "mcf", "dealII"}
	var empty, lf float64
	for i := 0; i < b.N; i++ {
		empty, lf = 0, 0
		for _, n := range names {
			p, err := workload.ProfileByName(n)
			if err != nil {
				b.Fatal(err)
			}
			e, err := eval.KernelOverhead(p, eval.A2, e9patch.Config{}, false)
			if err != nil {
				b.Fatal(err)
			}
			l, err := eval.KernelOverhead(p, eval.A2, e9patch.Config{Template: lowfat.CheckTemplate{}}, true)
			if err != nil {
				b.Fatal(err)
			}
			empty += e
			lf += l
		}
	}
	n := float64(len(names))
	b.ReportMetric(empty/n, "empty%")
	b.ReportMetric(lf/n, "lowfat%")
}

// BenchmarkAblationGrouping regenerates the §6.1 grouping-vs-naive
// file-size ablation.
func BenchmarkAblationGrouping(b *testing.B) {
	var grouped, naive float64
	for i := 0; i < b.N; i++ {
		out, err := eval.AblationGrouping(benchOpt, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		grouped, naive = out[0].GroupedSizePct, out[0].NaiveSizePct
	}
	b.ReportMetric(grouped, "grouped-size%")
	b.ReportMetric(naive, "naive-size%")
}

// BenchmarkAblationGranularity regenerates the §4 mapping-count sweep.
func BenchmarkAblationGranularity(b *testing.B) {
	var m1, m64 float64
	for i := 0; i < b.N; i++ {
		pts, err := eval.AblationGranularity(benchOpt, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		m1 = float64(pts[0].Mappings)
		m64 = float64(pts[len(pts)-1].Mappings)
	}
	b.ReportMetric(m1, "mapsM1")
	b.ReportMetric(m64, "mapsM64")
}

// BenchmarkAblationPIE regenerates the §6.1 PIE-coverage comparison.
func BenchmarkAblationPIE(b *testing.B) {
	var native, pie float64
	for i := 0; i < b.N; i++ {
		out, err := eval.AblationPIE(benchOpt, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		native, pie = 0, 0
		for _, c := range out {
			native += c.NativeBase
			pie += c.PIEBase
		}
		native /= float64(len(out))
		pie /= float64(len(out))
	}
	b.ReportMetric(native, "native-base%")
	b.ReportMetric(pie, "pie-base%")
}

// BenchmarkAblationB0 regenerates the §2.1.1 signal-handler baseline.
func BenchmarkAblationB0(b *testing.B) {
	workload.KernelIters = benchOpt.Iters
	var factor float64
	for i := 0; i < b.N; i++ {
		c, err := eval.AblationB0(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		factor = c.Factor
	}
	b.ReportMetric(factor, "b0/jump-x")
}

// BenchmarkMotivationAccuracy regenerates the §1 accuracy-decay table.
func BenchmarkMotivationAccuracy(b *testing.B) {
	var at1000 float64
	for i := 0; i < b.N; i++ {
		pts := eval.MotivationAccuracy()
		for _, p := range pts {
			if p.Jumps == 1000 {
				at1000 = p.Effective
			}
		}
	}
	b.ReportMetric(at1000, "eff%@1000")
}

// --- micro-benchmarks of the pipeline stages ---

func buildBenchBinary(b *testing.B) []byte {
	b.Helper()
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.BuildStatic(p, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	return prog.ELF
}

// BenchmarkLinearDisasm measures frontend throughput.
func BenchmarkLinearDisasm(b *testing.B) {
	bin := buildBenchBinary(b)
	f, err := elf64.Parse(bin)
	if err != nil {
		b.Fatal(err)
	}
	text, addr, _ := f.Text()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := disasm.Linear(text, addr)
		if len(res.Insts) == 0 {
			b.Fatal("no instructions")
		}
	}
}

// BenchmarkRewrite measures end-to-end rewriting throughput (A2) at
// Config.Parallelism 1 and GOMAXPROCS: the two lines are the scaling of
// the sharded phases on this machine (one sub-benchmark where
// GOMAXPROCS is 1). TestParallelRewrite holds the bytes identical at
// every width.
func BenchmarkRewrite(b *testing.B) {
	bin := buildBenchBinary(b)
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, width := range widths {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.SetBytes(int64(len(bin)))
			for i := 0; i < b.N; i++ {
				res, err := e9patch.Rewrite(bin, e9patch.Config{
					Select:      e9patch.SelectHeapWrites,
					ReserveVA:   workload.ReserveVA(),
					Parallelism: width,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Total == 0 {
					b.Fatal("no patch points")
				}
			}
		})
	}
}

// BenchmarkPlan measures the decision phase alone: disassembly,
// matching, tactic search and trampoline allocation, without
// materializing an output binary.
func BenchmarkPlan(b *testing.B) {
	bin := buildBenchBinary(b)
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := e9patch.Plan(bin, e9patch.Config{
			Select:    e9patch.SelectHeapWrites,
			ReserveVA: workload.ReserveVA(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Sites) == 0 {
			b.Fatal("no patch points")
		}
	}
}

// BenchmarkApplyPlan measures rematerialization from a plan made once
// outside the timer. ApplyTrusted is the plan-cache-hit path of
// e9served (the plan is its own, or a peer's running the same build);
// Apply is the path for a plan from anywhere else, which first
// re-derives the instruction universe to check the plan against it.
// Compare with BenchmarkRewrite for what a plan hit skips.
func BenchmarkApplyPlan(b *testing.B) {
	bin := buildBenchBinary(b)
	p, err := e9patch.Plan(bin, e9patch.Config{
		Select:    e9patch.SelectHeapWrites,
		ReserveVA: workload.ReserveVA(),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		apply func([]byte, *e9patch.PatchPlan) (*e9patch.Result, error)
	}{
		{"Apply", e9patch.Apply},
		{"ApplyTrusted", e9patch.ApplyTrusted},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bin)))
			for i := 0; i < b.N; i++ {
				res, err := tc.apply(bin, p)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Patched() == 0 {
					b.Fatal("nothing patched")
				}
			}
		})
	}
}

// BenchmarkEmulator measures emulated instruction throughput under the
// default engine over the five kernel archetypes, original and rewritten
// (the pairing of the emu-kernels workload: A2 heap writes for the two
// store-heavy kernels, A1 jumps for the rest).
func BenchmarkEmulator(b *testing.B) {
	benchEmulator(b, workload.Engine)
}

// BenchmarkEmulatorInterp pins the decode-per-step interpreter, the
// oracle; compare with BenchmarkEmulator for the engine speedup.
func BenchmarkEmulatorInterp(b *testing.B) {
	benchEmulator(b, "interp")
}

func benchEmulator(b *testing.B, engine string) {
	savedEngine, savedIters := workload.Engine, workload.KernelIters
	workload.Engine, workload.KernelIters = engine, 20000
	defer func() { workload.Engine, workload.KernelIters = savedEngine, savedIters }()
	for _, k := range []struct {
		arch, app string
		sel       e9patch.Selector
	}{
		{"branchy", "A1", e9patch.SelectJumps},
		{"memstream", "A2", e9patch.SelectHeapWrites},
		{"matrix", "A2", e9patch.SelectHeapWrites},
		{"pointer", "A1", e9patch.SelectJumps},
		{"callheavy", "A1", e9patch.SelectJumps},
	} {
		prog, err := workload.BuildKernel(k.arch, false)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e9patch.Rewrite(prog.ELF, e9patch.Config{Select: k.sel, ReserveVA: workload.ReserveVA()})
		if err != nil {
			b.Fatal(err)
		}
		for _, img := range []struct {
			name string
			bin  []byte
		}{{"orig", prog.ELF}, {k.app, res.Output}} {
			b.Run(k.arch+"/"+img.name, func(b *testing.B) {
				var instr uint64
				for i := 0; i < b.N; i++ {
					m := workload.NewMachine(nil)
					entry, err := e9patch.Load(m, img.bin)
					if err != nil {
						b.Fatal(err)
					}
					m.RIP = entry
					if err := m.Run(1_000_000_000); err != nil {
						b.Fatal(err)
					}
					instr += m.Counters.Instructions
				}
				b.ReportMetric(float64(instr)/1e6/b.Elapsed().Seconds(), "Minst/s")
			})
		}
	}
}

// BenchmarkNewMachine is the fixed cost every emulated run pays first:
// bindings, engine and a reserved (not allocated) stack. Read it with
// -benchmem; TestNewMachineAllocGate holds the allocation side in tier-1.
func BenchmarkNewMachine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if workload.NewMachine(nil).Engine == nil {
			b.Fatal("no engine installed")
		}
	}
}

// BenchmarkLoader measures image reconstruction from a patched binary.
func BenchmarkLoader(b *testing.B) {
	bin := buildBenchBinary(b)
	res, err := e9patch.Rewrite(bin, e9patch.Config{
		Select:    e9patch.SelectHeapWrites,
		ReserveVA: workload.ReserveVA(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(res.Output)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := emu.NewMachine()
		if _, err := e9patch.Load(m, res.Output); err != nil {
			b.Fatal(err)
		}
	}
}
