// Micro-benchmarks of the core pipeline stages: recovery, rewriting,
// planning, plan application, loading and emulation. The paper's tables and
// figures are not benchmarks: `cmd/e9bench` prints them, and
// bench_results_full.txt records its `-all -scale 0.25` run.
package e9patch_test

import (
	"fmt"
	"runtime"
	"testing"

	"e9patch"
	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/workload"
)

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
		res, _ := disasm.Recover(disasm.ModeLinear, text, addr)
		if len(res.Insts) == 0 {
			b.Fatal("no instructions")
		}
	}
}

// BenchmarkRewrite measures end-to-end rewriting throughput (A2) at
// Config.Parallelism 1 and GOMAXPROCS: the two lines are the scaling of
// the sharded phases on this machine (one sub-benchmark where
// GOMAXPROCS is 1). TestParallelRewrite* holds the bytes identical at
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
// default engine over the five emu-kernels classes, original and
// rewritten: each archetype built with its Table 1 row's tuning
// (workload.TuningFor) under that row's application, A2 heap writes for
// the two store-heavy kernels and A1 jumps for the rest. Under the ir engine it
// also reports blocks/op, the block dispatches one run pays for, so a
// throughput change can be told apart from a dispatch-count change.
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
		arch, row, app string
		sel            e9patch.Selector
	}{
		{"branchy", "gcc", "A1", e9patch.SelectJumps},
		{"memstream", "h264ref", "A2", e9patch.SelectHeapWrites},
		{"matrix", "tonto", "A2", e9patch.SelectHeapWrites},
		{"pointer", "omnetpp", "A1", e9patch.SelectJumps},
		{"callheavy", "xalancbmk", "A1", e9patch.SelectJumps},
	} {
		row, err := workload.ProfileByName(k.row)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := workload.BuildKernelTuned(k.arch, false, workload.TuningFor(row))
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
				var instr, blocks uint64
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
					if e, ok := m.Engine.(interface{ FastBlocks() uint64 }); ok {
						blocks += e.FastBlocks()
					}
				}
				b.ReportMetric(float64(instr)/1e6/b.Elapsed().Seconds(), "Minst/s")
				if blocks != 0 {
					b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
				}
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
