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
//	e9bench -enginespeed       # interp vs tbc vs ir emulation throughput
//	e9bench -parallelism=8     # rewrite-phase scaling curve, widths 1..8
//	e9bench -plancache         # plan-cache-hit rematerialization speedup
//	e9bench -matchlang         # spec-language matcher cost vs hardcoded selectors
//	e9bench -disasm            # per-mode recovery counts, prune ratio, rewrite throughput
//	e9bench -cluster           # peer plan-fetch speedup + plan-delta egress ratio
//	e9bench -all               # everything
//
// -scale shrinks the synthetic binaries relative to the paper's sizes
// (default 0.25); -full is shorthand for -scale 1. -engine selects the
// execution engine by registry name (tbc translation cache by default;
// ir for the IR-lifting engine; interp to fall back to the
// decode-per-step interpreter); every run ends with an
// instructions-per-second line for the session. -json PATH additionally
// writes the session's machine-readable results (engine, workload,
// instructions/sec, speedup) for the BENCH_*.json trajectory
// (`make bench-json`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"e9patch/internal/emu"
	"e9patch/internal/eval"
	"e9patch/internal/workload"
)

// jsonReport is the machine-readable result file written by -json: the
// start of the repo's BENCH_*.json trajectory, so performance can be
// tracked across commits without scraping stdout.
type jsonReport struct {
	GeneratedAt string           `json:"generatedAt"`
	Scale       float64          `json:"scale"`
	Engine      string           `json:"engine"`
	EngineSpeed *engineSpeedJSON `json:"engineSpeed,omitempty"`
	Emulation   *emulationJSON   `json:"emulation,omitempty"`
	Parallel    *parallelJSON    `json:"rewriteScaling,omitempty"`
	PlanCache   *planCacheJSON   `json:"planCache,omitempty"`
	MatchLang   *matchLangJSON   `json:"matchLang,omitempty"`
	Disasm      *disasmJSON      `json:"disasmModes,omitempty"`
	Cluster     *clusterJSON     `json:"cluster,omitempty"`
}

// clusterJSON mirrors eval.ClusterBench for the -cluster run.
type clusterJSON struct {
	Profile         string  `json:"profile"`
	Nodes           int     `json:"nodes"`
	Locations       int     `json:"locations"`
	ReplanSec       float64 `json:"replanSeconds"`
	PeerFetchSec    float64 `json:"peerFetchSeconds"`
	FetchSpeedup    float64 `json:"peerFetchSpeedup"`
	Identical       bool    `json:"byteIdentical"`
	EgressMB        int     `json:"egressTargetMB"`
	EgressTextMB    int     `json:"egressTextMB"`
	FullEgressBytes int     `json:"fullEgressBytes"`
	PlanEgressBytes int     `json:"planEgressBytes"`
	EgressRatio     float64 `json:"egressRatio"`
	EgressIdentical bool    `json:"egressByteIdentical"`
}

// disasmJSON mirrors eval.DisasmBench for the -disasm run.
type disasmJSON struct {
	Scale    float64             `json:"scale"`
	Profiles []disasmProfileJSON `json:"profiles"`
}

type disasmProfileJSON struct {
	Profile string           `json:"profile"`
	CET     bool             `json:"cet"`
	DSO     bool             `json:"dso"`
	TextKB  float64          `json:"textKB"`
	Rows    []disasmModeJSON `json:"modes"`
}

type disasmModeJSON struct {
	Mode       string  `json:"mode"`
	Recovered  int     `json:"recovered"`
	Decoded    int     `json:"decoded,omitempty"`
	Valid      int     `json:"valid,omitempty"`
	Anchors    int     `json:"anchors,omitempty"`
	PruneRatio float64 `json:"pruneRatio"`
	PlanSites  int     `json:"planSites"`
	Patched    int     `json:"patched"`
	Seconds    float64 `json:"seconds"`
	MBPerSec   float64 `json:"mbPerSec"`
}

// matchLangJSON mirrors eval.MatchLangBench for the -matchlang run.
type matchLangJSON struct {
	Profile string             `json:"profile"`
	Insts   int                `json:"insts"`
	Rows    []matchLangRowJSON `json:"rows"`
}

type matchLangRowJSON struct {
	Name      string  `json:"name"`
	Expr      string  `json:"expr"`
	Matched   int     `json:"matched"`
	HardNs    float64 `json:"hardcodedNsPerInst,omitempty"`
	LangNs    float64 `json:"compiledNsPerInst"`
	Slowdown  float64 `json:"slowdown,omitempty"`
	Identical bool    `json:"identicalSelection"`
}

// planCacheJSON mirrors eval.PlanCacheBench for the -plancache run.
type planCacheJSON struct {
	Profile     string  `json:"profile"`
	App         string  `json:"app"`
	Locations   int     `json:"locations"`
	RewriteSec  float64 `json:"rewriteSeconds"`
	PlanSec     float64 `json:"planSeconds"`
	ApplySec    float64 `json:"applySeconds"`
	Speedup     float64 `json:"applySpeedup"`
	PlanBytes   int     `json:"planBytes"`
	OutputBytes int     `json:"outputBytes"`
	Identical   bool    `json:"byteIdentical"`
}

// parallelJSON mirrors eval.ParallelScaling for the -parallelism run.
type parallelJSON struct {
	Profile   string              `json:"profile"`
	App       string              `json:"app"`
	Insts     int                 `json:"insts"`
	Locations int                 `json:"locations"`
	Cores     int                 `json:"cores"`
	Identical bool                `json:"byteIdentical"`
	Points    []parallelPointJSON `json:"points"`
}

type parallelPointJSON struct {
	Width   int     `json:"width"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup"`
}

// engineSpeedJSON mirrors eval.EngineSpeed for the -enginespeed run.
// "speedup" stays the tbc/interp ratio so the trajectory across
// commits remains comparable; the ir engine adds its own pair.
type engineSpeedJSON struct {
	Workload     string  `json:"workload"`
	Instructions uint64  `json:"instructions"`
	InterpIPS    float64 `json:"interpInstPerSec"`
	TBCIPS       float64 `json:"tbcInstPerSec"`
	IRIPS        float64 `json:"irInstPerSec"`
	Speedup      float64 `json:"speedup"`
	IRSpeedup    float64 `json:"irSpeedup"`
}

// emulationJSON is the session-wide emulation throughput.
type emulationJSON struct {
	Instructions uint64  `json:"instructions"`
	Seconds      float64 `json:"seconds"`
	InstPerSec   float64 `json:"instPerSec"`
}

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
		engSpd  = flag.Bool("enginespeed", false, "interp vs tbc vs ir emulation throughput")
		parMax  = flag.Int("parallelism", 0, "measure rewrite-phase scaling up to this worker count")
		planCch = flag.Bool("plancache", false, "measure plan-cache-hit rematerialization speedup")
		mtchLng = flag.Bool("matchlang", false, "measure spec-language matcher cost vs hardcoded selectors")
		disasmB = flag.Bool("disasm", false, "measure recovery counts, prune ratio and throughput per disassembly mode")
		clstr   = flag.Bool("cluster", false, "measure peer plan-fetch speedup and plan-delta egress ratio")
		clstrMB = flag.Int("cluster-mb", 120, "-cluster: egress workload size in MB")
		all     = flag.Bool("all", false, "run every experiment")
		scale   = flag.Float64("scale", 0.25, "binary size scale vs the paper")
		full    = flag.Bool("full", false, "shorthand for -scale 1")
		iters   = flag.Int("iters", 0, "kernel iterations (0 = default)")
		spec    = flag.Bool("spec-only", false, "Table 1: SPEC rows only")
		engine  = flag.String("engine", "tbc", "execution engine: tbc (translation cache), ir (IR lifting), or interp (fallback)")
		jsonOut = flag.String("json", "", "write machine-readable results to this path")
		verbose = flag.Bool("v", false, "progress output")
	)
	flag.Parse()
	if *full {
		*scale = 1
	}
	if _, err := emu.NewEngineByName(*engine); err != nil {
		fmt.Fprintf(os.Stderr, "e9bench: %v\n", err)
		os.Exit(2)
	}
	workload.Engine = *engine
	opt := eval.Options{Scale: *scale, Iters: *iters}
	progress := func() *os.File {
		if *verbose {
			return os.Stderr
		}
		return nil
	}()
	var prog *os.File = progress

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

	report := jsonReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       *scale,
		Engine:      *engine,
	}

	if *engSpd || *all {
		ran = true
		fmt.Println("== Engine throughput: interp vs tbc vs ir (memstream kernel) ==")
		es, err := eval.MeasureEngines(opt)
		if err != nil {
			fail(err)
		}
		fmt.Printf("interp %10.2f Minst/s\ntbc    %10.2f Minst/s   speedup %.2fx\nir     %10.2f Minst/s   speedup %.2fx  (%d instructions/run, counters identical)\n",
			es.InterpIPS/1e6, es.TBCIPS/1e6, es.Speedup,
			es.IRIPS/1e6, es.IRSpeedup, es.Instructions)
		fmt.Println()
		report.EngineSpeed = &engineSpeedJSON{
			Workload:     "memstream",
			Instructions: es.Instructions,
			InterpIPS:    es.InterpIPS,
			TBCIPS:       es.TBCIPS,
			IRIPS:        es.IRIPS,
			Speedup:      es.Speedup,
			IRSpeedup:    es.IRSpeedup,
		}
	}

	if *parMax > 0 || *all {
		ran = true
		max := *parMax
		if max <= 0 {
			max = 8
		}
		widths := []int{1}
		for w := 2; w < max; w *= 2 {
			widths = append(widths, w)
		}
		if widths[len(widths)-1] != max {
			widths = append(widths, max)
		}
		fmt.Printf("== Rewrite-phase parallel scaling (gcc profile, A2, widths %v) ==\n", widths)
		ps, err := eval.MeasureParallelScaling(opt, widths, prog)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d insts, %d locations, %d core(s), byte-identical across widths: %v\n",
			ps.Insts, ps.Locations, ps.Cores, ps.Identical)
		for _, pt := range ps.Points {
			fmt.Printf("  width %2d: %8.3fs   speedup %.2fx\n", pt.Width, pt.Seconds, pt.Speedup)
		}
		if !ps.Identical {
			fail(fmt.Errorf("parallel rewrite output diverged from sequential"))
		}
		fmt.Println()
		pj := &parallelJSON{
			Profile:   ps.Profile,
			App:       ps.App,
			Insts:     ps.Insts,
			Locations: ps.Locations,
			Cores:     ps.Cores,
			Identical: ps.Identical,
		}
		for _, pt := range ps.Points {
			pj.Points = append(pj.Points, parallelPointJSON(pt))
		}
		report.Parallel = pj
	}

	if *planCch || *all {
		ran = true
		fmt.Println("== Plan-cache rematerialization (gcc profile, A2) ==")
		pc, err := eval.MeasurePlanCache(opt, prog)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d locations, byte-identical: %v\n", pc.Locations, pc.Identical)
		fmt.Printf("  rewrite %8.3fs   plan %8.3fs   apply %8.3fs   (cache hit skips %.1fx)\n",
			pc.RewriteSec, pc.PlanSec, pc.ApplySec, pc.Speedup)
		fmt.Printf("  plan %d bytes vs output %d bytes (%.1f%% of the result)\n",
			pc.PlanBytes, pc.OutputBytes, 100*float64(pc.PlanBytes)/float64(pc.OutputBytes))
		if !pc.Identical {
			fail(fmt.Errorf("plan apply output diverged from direct rewrite"))
		}
		fmt.Println()
		report.PlanCache = &planCacheJSON{
			Profile:     pc.Profile,
			App:         pc.App,
			Locations:   pc.Locations,
			RewriteSec:  pc.RewriteSec,
			PlanSec:     pc.PlanSec,
			ApplySec:    pc.ApplySec,
			Speedup:     pc.Speedup,
			PlanBytes:   pc.PlanBytes,
			OutputBytes: pc.OutputBytes,
			Identical:   pc.Identical,
		}
	}

	if *mtchLng || *all {
		ran = true
		fmt.Println("== Match-language matcher cost (gcc profile) ==")
		ml, err := eval.MeasureMatchLang(opt, prog)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d instructions disassembled from the %s static text\n", ml.Insts, ml.Profile)
		mj := &matchLangJSON{Profile: ml.Profile, Insts: ml.Insts}
		for _, r := range ml.Rows {
			if r.HardNs > 0 {
				fmt.Printf("  %-9s %-34q %7d matched   hardcoded %6.1f ns/inst   compiled %6.1f ns/inst   (%.2fx)\n",
					r.Name, r.Expr, r.Matched, r.HardNs, r.LangNs, r.Slowdown)
			} else {
				fmt.Printf("  %-9s %-34q %7d matched   compiled %6.1f ns/inst\n",
					r.Name, r.Expr, r.Matched, r.LangNs)
			}
			mj.Rows = append(mj.Rows, matchLangRowJSON(r))
		}
		fmt.Println()
		report.MatchLang = mj
	}

	if *disasmB || *all {
		ran = true
		fmt.Println("== Disassembly modes: recovery, pruning and rewrite throughput ==")
		db, err := eval.MeasureDisasm(opt, prog)
		if err != nil {
			fail(err)
		}
		eval.PrintDisasm(os.Stdout, db)
		fmt.Println()
		dj := &disasmJSON{Scale: db.Scale}
		for _, pb := range db.Profiles {
			pj := disasmProfileJSON{
				Profile: pb.Profile,
				CET:     pb.CET,
				DSO:     pb.DSO,
				TextKB:  pb.TextKB,
			}
			for _, r := range pb.Rows {
				pj.Rows = append(pj.Rows, disasmModeJSON(r))
			}
			dj.Profiles = append(dj.Profiles, pj)
		}
		report.Disasm = dj
	}

	if *clstr || *all {
		ran = true
		fmt.Printf("== Distributed e9served: peer plan-fetch and plan-delta egress (%d MB egress workload) ==\n", *clstrMB)
		cb, err := eval.MeasureCluster(opt, *clstrMB, 16, prog)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d-node cluster, %s profile, %d locations, byte-identical: %v\n",
			cb.Nodes, cb.Profile, cb.Locations, cb.Identical)
		fmt.Printf("  replan %8.3fs   peer plan-fetch %8.3fs   (%.1fx cheaper)\n",
			cb.ReplanSec, cb.PeerFetchSec, cb.FetchSpeedup)
		fmt.Printf("  plan-delta egress %d bytes vs full binary %d bytes (%.2f%%, byte-identical after apply: %v)\n",
			cb.PlanEgressBytes, cb.FullEgressBytes, 100*cb.EgressRatio, cb.EgressIdentical)
		if !cb.Identical || !cb.EgressIdentical {
			fail(fmt.Errorf("cluster outputs diverged from the local rewrite"))
		}
		if cb.FetchSpeedup < 5 {
			fail(fmt.Errorf("peer plan-fetch speedup %.2fx is under the 5x acceptance floor", cb.FetchSpeedup))
		}
		if cb.EgressRatio > 0.10 {
			fail(fmt.Errorf("plan-delta egress is %.1f%% of the full binary, over the 10%% acceptance ceiling", 100*cb.EgressRatio))
		}
		fmt.Println()
		report.Cluster = &clusterJSON{
			Profile:         cb.Profile,
			Nodes:           cb.Nodes,
			Locations:       cb.Locations,
			ReplanSec:       cb.ReplanSec,
			PeerFetchSec:    cb.PeerFetchSec,
			FetchSpeedup:    cb.FetchSpeedup,
			Identical:       cb.Identical,
			EgressMB:        cb.EgressMB,
			EgressTextMB:    cb.EgressTextMB,
			FullEgressBytes: cb.FullEgressBytes,
			PlanEgressBytes: cb.PlanEgressBytes,
			EgressRatio:     cb.EgressRatio,
			EgressIdentical: cb.EgressIdentical,
		}
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}

	// Session throughput: every emulated run above contributes.
	if inst, dur := eval.EmuThroughput(); dur > 0 {
		fmt.Printf("emulation: %d instructions in %.2fs under engine=%s: %.2f Minst/s\n",
			inst, dur.Seconds(), *engine, float64(inst)/dur.Seconds()/1e6)
		report.Emulation = &emulationJSON{
			Instructions: inst,
			Seconds:      dur.Seconds(),
			InstPerSec:   float64(inst) / dur.Seconds(),
		}
	}

	if *jsonOut != "" {
		j, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonOut, append(j, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}
