package emu_test

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"e9patch"
	"e9patch/internal/emu"
	"e9patch/internal/emu/enginetest"
	"e9patch/internal/lowfat"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// The cross-engine conformance lattice lives in internal/emu/enginetest
// and holds ir to interp. This file tests what is specific to the IR
// engine: that its cache behaves like a cache (chaining, SMC flushes),
// that its optimizations actually fire (flag elision, constant folding,
// threaded fast path), that the measured hot set lifts without a
// fallback and that the lifting pays off in speed.

func runKernel(t *testing.T, kernel string, eng emu.Engine) *emu.Machine {
	t.Helper()
	prog, err := workload.BuildKernel(kernel, false)
	if err != nil {
		t.Fatal(err)
	}
	m := workload.NewMachine(nil)
	m.Engine = eng
	entry, err := e9patch.Load(m, prog.ELF)
	if err != nil {
		t.Fatal(err)
	}
	m.RIP = entry
	if err := m.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKernelsAgreeWithInterp is a quick smoke check across all runnable
// kernels (the full lattice is in enginetest): identical registers,
// flags, counters and output versus the interpreter.
func TestKernelsAgreeWithInterp(t *testing.T) {
	saved := workload.KernelIters
	workload.KernelIters = 3000
	defer func() { workload.KernelIters = saved }()

	for _, kernel := range []string{"memstream", "branchy", "matrix", "pointer", "callheavy"} {
		interp := runKernel(t, kernel, nil)
		lifted := runKernel(t, kernel, emu.NewIREngine())
		type view struct {
			Regs     [16]uint64
			RIP      uint64
			Flags    uint64
			ExitCode uint64
			Counters emu.Counters
			Output   []uint64
		}
		iv := view{interp.Regs, interp.RIP, interp.Flags, interp.ExitCode, interp.Counters, interp.Output}
		lv := view{lifted.Regs, lifted.RIP, lifted.Flags, lifted.ExitCode, lifted.Counters, lifted.Output}
		if !reflect.DeepEqual(iv, lv) {
			t.Errorf("%s: ir diverged from interp:\ninterp: %+v\nir:     %+v", kernel, iv, lv)
		}
	}
}

// TestChainingStats checks that the cache actually behaves like a
// cache on a hot loop: few translations, many transitions, most of
// them resolved through chain pointers rather than map lookups.
func TestChainingStats(t *testing.T) {
	saved := workload.KernelIters
	workload.KernelIters = 5000
	defer func() { workload.KernelIters = saved }()

	eng := emu.NewIREngine()
	runKernel(t, "memstream", eng)
	s := eng.Stats
	if s.Translations == 0 || s.Lookups == 0 {
		t.Fatalf("no cache activity: %+v", s)
	}
	if s.Translations > 200 {
		t.Errorf("lifted %d blocks for a tiny kernel (cache not reused?)", s.Translations)
	}
	if s.Lookups < 1000 {
		t.Errorf("only %d block transitions; kernel loop should dominate", s.Lookups)
	}
	if s.Chained*2 < s.Lookups {
		t.Errorf("chaining resolved %d of %d transitions; expected a majority", s.Chained, s.Lookups)
	}
	if s.Flushes != 0 {
		t.Errorf("%d spurious flushes on non-self-modifying code", s.Flushes)
	}
}

// TestSteadyPathProbesNoMap is the probe-free transition as an exact
// count rather than a timing: over the memstream kernel the Runtime map
// is consulted only by the transitions that are runtime calls (its code
// lies outside the range of bound addresses, so no ordinary or chained
// transition reaches the map), and the tracker's page map by no store
// at all (its buffers and stack lie outside the tracked code pages).
// Both counts hold at any iteration count.
func TestSteadyPathProbesNoMap(t *testing.T) {
	saved := workload.KernelIters
	defer func() { workload.KernelIters = saved }()
	for _, iters := range []int{500, 5000} {
		workload.KernelIters = iters
		eng := emu.NewIREngine()
		m := runKernel(t, "memstream", eng)
		s := eng.Stats
		if s.Chained < uint64(iters) {
			t.Fatalf("%d iterations: only %d chained transitions", iters, s.Chained)
		}
		if s.SpecialProbes != m.Counters.RuntimeCalls {
			t.Errorf("%d iterations: %d Runtime-map probes for %d runtime calls over %d transitions",
				iters, s.SpecialProbes, m.Counters.RuntimeCalls, s.Lookups)
		}
		if s.BarrierProbes != 0 {
			t.Errorf("%d iterations: %d tracker-map probes from data stores", iters, s.BarrierProbes)
		}
	}
}

// TestSMCFlushStats: behavioural parity on self-modifying code is
// checked in enginetest; here we assert the mechanism — a store into
// translated code flushes the cache exactly once per event, whether it
// lands in another block's bytes or aborts the block that issued it.
func TestSMCFlushStats(t *testing.T) {
	const base = 0x401000
	run := func(text []byte, wantExit uint64) emu.IRStats {
		t.Helper()
		eng := emu.NewIREngine()
		m := emu.NewMachine()
		m.Engine = eng
		m.Mem.WriteBytes(base, text)
		m.SetupStack(workload.StackTop, workload.StackSize)
		m.RIP = base
		if err := m.Run(10_000); err != nil {
			t.Fatal(err)
		}
		if m.ExitCode != wantExit {
			t.Errorf("exit = %d, want %d", m.ExitCode, wantExit)
		}
		return eng.Stats
	}

	// Three iterations each patch the immediate of the loop's first
	// instruction: three stores into translated code, three flushes.
	if s := run(enginetest.SMCPatchLoop(base), 11); s.Flushes != 3 {
		t.Errorf("patch loop: %d flushes for 3 stores into translated code, want 3", s.Flushes)
	}

	// One store over the next instruction of the running block: one
	// flush, and the block is abandoned so the new hlt executes.
	s := run(enginetest.SMCSameBlock(base), 7)
	if s.Flushes != 1 {
		t.Errorf("mid-block abort: %d flushes for one store, want 1", s.Flushes)
	}
	if s.Translations != 2 {
		t.Errorf("mid-block abort: %d blocks lifted, want 2 (the block, then its patched tail)", s.Translations)
	}

	// A store from a trampoline into the site page, which the same
	// superblock decoded before it hopped, on each of three trips: one
	// flush per store, and each aborts the block, whose tail is lifted
	// again — seven blocks: the loop's, the tail's after each abort,
	// and the final ret.
	eng := emu.NewIREngine()
	site, tramp, tail := enginetest.HopSMC()
	m := enginetest.HopMachine(eng, site, tramp, tail)
	if err := m.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode != 11 || eng.Stats.Flushes != 3 || eng.Stats.Translations != 7 {
		t.Errorf("store into an earlier segment: exit %d, %d flushes, %d blocks lifted; want 11, 3, 7",
			m.ExitCode, eng.Stats.Flushes, eng.Stats.Translations)
	}
}

// TestOptimizationStats checks the lift-time optimizations fire on a
// hot loop: the fast path carries every block execution and dead-flag
// elimination removes a nonzero share of flag computations.
func TestOptimizationStats(t *testing.T) {
	saved := workload.KernelIters
	workload.KernelIters = 5000
	defer func() { workload.KernelIters = saved }()

	eng := emu.NewIREngine()
	runKernel(t, "memstream", eng)
	s := eng.Stats
	if s.FastBlocks == 0 {
		t.Error("no block ran on the threaded fast path")
	}
	if s.CarefulBlocks != 0 {
		t.Errorf("%d careful-path executions with no tracer and a huge budget", s.CarefulBlocks)
	}
	if s.ElidedFlags == 0 {
		t.Error("dead-flag elimination removed nothing on the memstream loop")
	}
}

// TestConstantFolding: effective addresses built from registers loaded
// with immediates inside the block fold at lift time, and the lifted
// code still computes the same memory image as the interpreter.
func TestConstantFolding(t *testing.T) {
	const base = 0x401000
	const buf = 0x500000
	build := func() []byte {
		a := x86.NewAsm(base)
		// rbx becomes a known constant; the three stores below all
		// have lift-time-constant addresses. xor zeroes rax (also a
		// known constant), so [rbx+rax*8] folds too.
		a.MovRegImm64(x86.RBX, buf)
		a.XorRegReg32(x86.RAX, x86.RAX)
		a.MovRegImm32(x86.RCX, 0x11)
		a.MovMemReg8(x86.M(x86.RBX, 0), x86.RCX)
		a.MovRegImm32(x86.RCX, 0x22)
		a.MovMemReg8(x86.M(x86.RBX, 1), x86.RCX)
		a.MovRegImm32(x86.RCX, 0x33)
		a.MovMemReg8(x86.MIdx(x86.RBX, x86.RAX, 8, 2), x86.RCX)
		a.Ret()
		return a.MustFinish()
	}
	text := build()

	run := func(eng emu.Engine) *emu.Machine {
		m := emu.NewMachine()
		m.Engine = eng
		m.Mem.WriteBytes(base, text)
		m.Mem.Map(buf, 0x1000)
		m.SetupStack(workload.StackTop, workload.StackSize)
		m.RIP = base
		if err := m.Run(10_000); err != nil {
			t.Fatal(err)
		}
		return m
	}

	interp := run(nil)
	eng := emu.NewIREngine()
	lifted := run(eng)

	if addr, diff := emu.DiffMemory(interp.Mem, lifted.Mem); diff {
		t.Errorf("memory diverged at %#x", addr)
	}
	if interp.Flags != lifted.Flags || interp.Regs != lifted.Regs {
		t.Errorf("state diverged: flags %#x vs %#x", interp.Flags, lifted.Flags)
	}
	if got, _ := lifted.Mem.ReadBytes(buf, 2); binary.LittleEndian.Uint16(got) != 0x2211 {
		t.Errorf("stores landed wrong: %#x", got)
	}
	if eng.Stats.FoldedEAs < 3 {
		t.Errorf("folded %d effective addresses, want >= 3", eng.Stats.FoldedEAs)
	}
}

// TestHotSetHasNoFallbacks pins the lift set to the measured hot set:
// the five emu-kernels classes (archetype, Table 1 row and selector as
// the benchmark builds them), original and rewritten under the empty
// template, and memstream rewritten under the LowFat check template,
// run to completion without lifting one instruction to the interpreter
// fallback.
func TestHotSetHasNoFallbacks(t *testing.T) {
	saved := workload.KernelIters
	workload.KernelIters = 2000
	defer func() { workload.KernelIters = saved }()

	run := func(name string, bin []byte, prep ...func(*emu.Machine)) {
		t.Helper()
		eng := emu.NewIREngine()
		m := workload.NewMachine(nil)
		m.Engine = eng
		for _, p := range prep {
			p(m)
		}
		entry, err := e9patch.Load(m, bin)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m.RIP = entry
		if err := m.Run(2_000_000_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eng.Stats.Fallbacks != 0 {
			t.Errorf("%s: %d instructions lifted to the interpreter fallback", name, eng.Stats.Fallbacks)
		}
	}
	for _, k := range []struct {
		arch, row string
		sel       e9patch.Selector
	}{
		{"branchy", "gcc", e9patch.SelectJumps},
		{"memstream", "h264ref", e9patch.SelectHeapWrites},
		{"matrix", "tonto", e9patch.SelectHeapWrites},
		{"pointer", "omnetpp", e9patch.SelectJumps},
		{"callheavy", "xalancbmk", e9patch.SelectJumps},
	} {
		row, err := workload.ProfileByName(k.row)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.BuildKernelTuned(k.arch, false, workload.TuningFor(row))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e9patch.Rewrite(prog.ELF, e9patch.Config{Select: k.sel, ReserveVA: workload.ReserveVA()})
		if err != nil {
			t.Fatal(err)
		}
		run(k.arch, prog.ELF)
		run(k.arch+"/empty", res.Output)
		if k.arch != "memstream" {
			continue
		}
		lf, err := e9patch.Rewrite(prog.ELF, e9patch.Config{
			Select:    e9patch.SelectHeapWrites,
			Template:  lowfat.CheckTemplate{},
			ReserveVA: append(workload.ReserveVA(), lowfat.ReserveVA()...),
		})
		if err != nil {
			t.Fatal(err)
		}
		run(k.arch+"/lowfat", lf.Output, func(m *emu.Machine) {
			lowfat.Install(m, workload.RTMalloc, workload.RTFree)
		})
	}
}

// TestTrampolineHopDoesNotEndBlock: a patched site's jump to its
// trampoline and the trampoline's jump back are followed inside one
// block, so a rewritten kernel runs in no more block executions than
// the original. It checks the five emu-kernels classes, with exact
// counts of the fast path's block executions.
func TestTrampolineHopDoesNotEndBlock(t *testing.T) {
	saved := workload.KernelIters
	workload.KernelIters = 2000
	defer func() { workload.KernelIters = saved }()

	blocks := func(bin []byte) uint64 {
		t.Helper()
		eng := emu.NewIREngine()
		m := workload.NewMachine(nil)
		m.Engine = eng
		entry, err := e9patch.Load(m, bin)
		if err != nil {
			t.Fatal(err)
		}
		m.RIP = entry
		if err := m.Run(2_000_000_000); err != nil {
			t.Fatal(err)
		}
		return eng.Stats.FastBlocks
	}
	for _, k := range []struct {
		arch, row string
		sel       e9patch.Selector
	}{
		{"branchy", "gcc", e9patch.SelectJumps},
		{"memstream", "h264ref", e9patch.SelectHeapWrites},
		{"matrix", "tonto", e9patch.SelectHeapWrites},
		{"pointer", "omnetpp", e9patch.SelectJumps},
		{"callheavy", "xalancbmk", e9patch.SelectJumps},
	} {
		row, err := workload.ProfileByName(k.row)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.BuildKernelTuned(k.arch, false, workload.TuningFor(row))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e9patch.Rewrite(prog.ELF, e9patch.Config{Select: k.sel, ReserveVA: workload.ReserveVA()})
		if err != nil {
			t.Fatal(err)
		}
		orig, rewritten := blocks(prog.ELF), blocks(res.Output)
		t.Logf("%s: %d blocks original, %d rewritten", k.arch, orig, rewritten)
		if rewritten > orig {
			t.Errorf("%s: the rewritten kernel ran %d blocks, the original %d", k.arch, rewritten, orig)
		}
	}
}

// TestIRSpeedup is the performance gate for the lifting engine: at
// least 4x the interpreter on each emu-kernels class, the tuned kernel
// of its SPEC row rewritten under its application, as BenchmarkEmulator
// and `go run ./bench -workload emu-kernels` build them. (The design
// target is 10x; the conservative bound keeps CI robust on loaded
// machines. The measured figure is emu-kernels/emu.minst_s.ir over
// emu.minst_s.interp in `go run ./bench`.)
func TestIRSpeedup(t *testing.T) {
	saved := workload.KernelIters
	workload.KernelIters = 20_000
	defer func() { workload.KernelIters = saved }()
	for _, k := range []struct {
		arch, row string
		sel       e9patch.Selector
	}{
		{"branchy", "gcc", e9patch.SelectJumps},
		{"memstream", "h264ref", e9patch.SelectHeapWrites},
		{"matrix", "tonto", e9patch.SelectHeapWrites},
		{"pointer", "omnetpp", e9patch.SelectJumps},
		{"callheavy", "xalancbmk", e9patch.SelectJumps},
	} {
		row, err := workload.ProfileByName(k.row)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.BuildKernelTuned(k.arch, false, workload.TuningFor(row))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e9patch.Rewrite(prog.ELF, e9patch.Config{Select: k.sel, ReserveVA: workload.ReserveVA()})
		if err != nil {
			t.Fatal(err)
		}
		measure := func(mk func() emu.Engine) float64 {
			best := 0.0
			for trial := 0; trial < 2; trial++ {
				m := workload.NewMachine(nil)
				m.Engine = mk()
				entry, err := e9patch.Load(m, res.Output)
				if err != nil {
					t.Fatal(err)
				}
				m.RIP = entry
				start := time.Now()
				if err := m.Run(2_000_000_000); err != nil {
					t.Fatal(err)
				}
				ips := float64(m.Counters.Instructions) / time.Since(start).Seconds()
				if ips > best {
					best = ips
				}
			}
			return best
		}
		interpIPS := measure(func() emu.Engine { return nil })
		irIPS := measure(func() emu.Engine { return emu.NewIREngine() })
		ratio := irIPS / interpIPS
		t.Logf("%s/%s: interp %.1f Minst/s, ir %.1f Minst/s, speedup %.2fx",
			k.arch, k.row, interpIPS/1e6, irIPS/1e6, ratio)
		if ratio < 4 {
			t.Errorf("%s/%s: ir speedup %.2fx < 4x (interp %.0f inst/s, ir %.0f inst/s)",
				k.arch, k.row, ratio, interpIPS, irIPS)
		}
	}
}
