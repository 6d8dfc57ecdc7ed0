// Command e9bench regenerates the paper's evaluation artefacts: Table 1,
// Figure 4, Figure 5 and the supporting ablations.
//
// Usage:
//
//	e9bench -table1            # patching statistics (Table 1)
//	e9bench -fig4              # Dromaeo browser overheads (Figure 4)
//	e9bench -fig5              # LowFat hardening overheads (Figure 5)
//	e9bench -ablation-grouping # §6.1 file-size with/without grouping
//	e9bench -ablation-granularity # §4 mapping count vs M
//	e9bench -ablation-pie      # §6.1 PIE vs non-PIE coverage
//	e9bench -ablation-b0       # §2.1.1 signal-handler baseline
//	e9bench -motivation        # §1 CFG-recovery accuracy decay
//	e9bench -all               # the eight artefacts above
//
// -scale shrinks the synthetic binaries relative to the paper's sizes
// (default 0.25; 1 is paper-sized). Kernels run on the default engine,
// ir; the cycle model is engine-invariant, so the figures are the same
// under interp. -v adds progress lines on standard error;
// standard output is the same.
//
// The standard output of `e9bench -all -scale 0.25` is recorded in
// bench_results_full.txt at the repository root, which EXPERIMENTS.md
// quotes; `make papercheck` regenerates and diffs it.
//
// Performance of the rewriter, the service and the engines is not
// measured here: that is `go run ./bench` (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"e9patch/internal/eval"
	"e9patch/internal/workload"
)

func main() {
	var (
		table1  = flag.Bool("table1", false, "regenerate Table 1")
		fig4    = flag.Bool("fig4", false, "regenerate Figure 4")
		fig5    = flag.Bool("fig5", false, "regenerate Figure 5")
		abGroup = flag.Bool("ablation-grouping", false, "grouping on/off file-size ablation")
		abGran  = flag.Bool("ablation-granularity", false, "granularity sweep (mappings vs M)")
		abPIE   = flag.Bool("ablation-pie", false, "PIE vs non-PIE coverage")
		abB0    = flag.Bool("ablation-b0", false, "int3/SIGTRAP baseline comparison")
		motiv   = flag.Bool("motivation", false, "CFG-recovery accuracy decay table")
		all     = flag.Bool("all", false, "run every paper artefact")
		scale   = flag.Float64("scale", 0.25, "binary size scale vs the paper")
		iters   = flag.Int("iters", 0, "kernel iterations (0 = default)")
		spec    = flag.Bool("spec-only", false, "Table 1: SPEC rows only")
		verbose = flag.Bool("v", false, "progress output")
	)
	flag.Parse()
	opt := eval.Options{Scale: *scale, Iters: *iters}
	var prog io.Writer
	if *verbose {
		prog = os.Stderr
	}

	ran := false
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "e9bench: %v\n", err)
		os.Exit(1)
	}

	if *table1 || *all {
		ran = true
		profiles := workload.AllProfiles()
		if *spec {
			profiles = workload.SPECProfiles
		}
		fmt.Printf("== Table 1: patching statistics (scale %.3g) ==\n", *scale)
		rows, err := eval.Table1(opt, profiles, prog)
		if err != nil {
			fail(err)
		}
		eval.PrintTable1(os.Stdout, rows)
		fmt.Println()
	}
	if *fig4 || *all {
		ran = true
		fmt.Println("== Figure 4: Dromaeo DOM relative overheads (A2 empty instrumentation) ==")
		pts, err := eval.Figure4(opt, prog)
		if err != nil {
			fail(err)
		}
		eval.PrintFigure4(os.Stdout, pts)
		fmt.Println()
		eval.ChartFigure4(os.Stdout, pts)
		fmt.Println()
	}
	if *fig5 || *all {
		ran = true
		fmt.Println("== Figure 5: heap-write hardening (empty vs LowFat) ==")
		rows, err := eval.Figure5(opt, prog)
		if err != nil {
			fail(err)
		}
		eval.PrintFigure5(os.Stdout, rows)
		fmt.Println()
		eval.ChartFigure5(os.Stdout, rows)
		fmt.Println()
	}
	if *abGroup || *all {
		ran = true
		fmt.Println("== Ablation: physical page grouping vs naive 1:1 (avg Size% over SPEC) ==")
		out, err := eval.AblationGrouping(opt, prog)
		if err != nil {
			fail(err)
		}
		for _, g := range out {
			fmt.Printf("%-3s grouped %8.2f%%   naive %8.2f%%   (bloat reduced %.1fx)\n",
				g.App, g.GroupedSizePct, g.NaiveSizePct,
				(g.NaiveSizePct-100)/(g.GroupedSizePct-100))
		}
		fmt.Println()
	}
	if *abGran || *all {
		ran = true
		fmt.Println("== Ablation: grouping granularity M (Chrome profile, A2) ==")
		pts, err := eval.AblationGranularity(opt, prog)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%4s %12s %18s %10s %s\n", "M", "mappings", "mappings(full est)", "phys MB", "under vm.max_map_count")
		for _, p := range pts {
			fmt.Printf("%4d %12d %18d %10.2f %v\n", p.M, p.Mappings, p.MappingsFullScale, p.PhysMB, p.UnderLimit)
		}
		fmt.Println()
	}
	if *abPIE || *all {
		ran = true
		fmt.Println("== Ablation: PIE vs non-PIE coverage (same instruction mix) ==")
		out, err := eval.AblationPIE(opt, prog)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-10s %-3s %12s %12s %12s %12s\n", "binary", "app", "base(native)", "base(PIE)", "succ(native)", "succ(PIE)")
		for _, c := range out {
			fmt.Printf("%-10s %-3s %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n",
				c.Name, c.App, c.NativeBase, c.PIEBase, c.NativeSucc, c.PIESucc)
		}
		fmt.Println()
	}
	if *abB0 || *all {
		ran = true
		fmt.Println("== Ablation: B0 int3/SIGTRAP baseline vs jump tactics (perlbench kernel, A1) ==")
		c, err := eval.AblationB0(opt)
		if err != nil {
			fail(err)
		}
		fmt.Printf("jump tactics: %8.1f%%   int3+signal: %10.1f%%   (%.0fx slower)\n",
			c.JumpPct, c.SignalPct, c.Factor)
		fmt.Println()
	}
	if *motiv || *all {
		ran = true
		fmt.Println("== Motivation (§1): effective accuracy of 99.9%-accurate CFG recovery ==")
		for _, p := range eval.MotivationAccuracy() {
			fmt.Printf("%6d indirect jumps -> %8.4f%%\n", p.Jumps, p.Effective)
		}
		fmt.Println()
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
