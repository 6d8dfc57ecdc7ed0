package workload

import (
	"bytes"
	"runtime"
	"testing"

	"e9patch"
	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/lang"
)

func init() { KernelIters = 2000 }

func TestBuildStaticDecodesCleanly(t *testing.T) {
	for _, name := range []string{"bzip2", "mcf", "lbm", "libquantum"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := BuildStatic(p, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		f, err := elf64.Parse(prog.ELF)
		if err != nil {
			t.Fatal(err)
		}
		text, addr, err := f.Text()
		if err != nil {
			t.Fatal(err)
		}
		res, _ := disasm.Recover(disasm.ModeLinear, text, addr)
		if res.BadBytes > len(text)/1000 {
			t.Errorf("%s: %d bad bytes in %d", name, res.BadBytes, len(text))
		}
		// Densities should be in the ballpark the profile implies.
		var sel [2][]int
		for i, expr := range []string{"branch", "heapwrite"} {
			p, err := lang.CompileExpr(expr)
			if err != nil {
				t.Fatal(err)
			}
			sel[i] = p.Selector()(res.Insts)
		}
		jumps, writes := sel[0], sel[1]
		if len(jumps) == 0 || len(writes) == 0 {
			t.Errorf("%s: degenerate mix: %d jumps, %d writes", name, len(jumps), len(writes))
		}
	}
}

func TestBuildStaticDeterministic(t *testing.T) {
	p, _ := ProfileByName("mcf")
	a, err := BuildStatic(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildStatic(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.ELF, b.ELF) {
		t.Fatal("profile generation is not deterministic")
	}
}

func TestBuildStaticKinds(t *testing.T) {
	for _, tc := range []struct {
		name string
		pie  bool
	}{{"gcc", false}, {"vim", true}, {"libc.so", true}} {
		p, err := ProfileByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := BuildStatic(p, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := elf64.Parse(prog.ELF)
		if f.IsPIE() != tc.pie {
			t.Errorf("%s: IsPIE = %v", tc.name, f.IsPIE())
		}
	}
}

func TestBigBSSProfile(t *testing.T) {
	p, _ := ProfileByName("zeusmp")
	prog, err := BuildStatic(p, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := elf64.Parse(prog.ELF)
	bss, ok := f.SectionByName(".bss")
	if !ok || bss.Size < 1000*1000*1000 {
		t.Errorf("zeusmp .bss = %d, want >= 1 GB", bss.Size)
	}
	// The file itself must not contain the .bss bytes.
	if len(prog.ELF) > 2*int(p.SizeMB*0.2*1e6)+1<<16 {
		t.Errorf("file size %d suggests .bss was materialised", len(prog.ELF))
	}
}

func TestChromeDataPrefix(t *testing.T) {
	p, _ := ProfileByName("Chrome")
	skip := DataPrefixBytes(p, 0.001)
	if skip == 0 {
		t.Fatal("Chrome profile must have a data prefix")
	}
}

// runKernel builds, loads and runs one kernel, returning the machine.
func runKernel(t *testing.T, arch string) *emu.Machine {
	t.Helper()
	prog, err := BuildKernel(arch, false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(nil)
	entry, err := e9patch.Load(m, prog.ELF)
	if err != nil {
		t.Fatal(err)
	}
	m.RIP = entry
	if err := m.Run(200_000_000); err != nil {
		t.Fatalf("%s: %v", arch, err)
	}
	return m
}

func TestKernelsRun(t *testing.T) {
	for _, arch := range []string{"branchy", "memstream", "matrix", "pointer", "callheavy"} {
		m := runKernel(t, arch)
		if len(m.Output) != 1 {
			t.Errorf("%s: output = %v", arch, m.Output)
		}
		if m.Counters.Instructions < 1000 {
			t.Errorf("%s: only %d instructions", arch, m.Counters.Instructions)
		}
	}
}

func TestKernelDeterministic(t *testing.T) {
	a := runKernel(t, "branchy")
	b := runKernel(t, "branchy")
	if a.Output[0] != b.Output[0] || a.Counters.Cycles != b.Counters.Cycles {
		t.Fatal("kernel execution is not deterministic")
	}
}

func TestDromaeoSuitesRun(t *testing.T) {
	for _, s := range DromaeoSuites {
		prog, err := BuildDromaeo(s, true, 10)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine(nil)
		BindJit(m)
		entry, err := e9patch.Load(m, prog.ELF)
		if err != nil {
			t.Fatal(err)
		}
		m.RIP = entry
		if err := m.Run(100_000_000); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(m.Output) != 1 {
			t.Errorf("%s: output = %v", s.Name, m.Output)
		}
	}
}

func TestWriteDensityOrdering(t *testing.T) {
	// Modify (85% writes) must execute more heap writes than Query
	// (6%): proxy via Mem cycles at equal iterations is noisy, so use
	// instruction counts of the write path via outputs differing —
	// instead compare store counts through the A2 instrumentation in
	// the pipeline tests; here just check both run and differ.
	q, _ := BuildDromaeo(DromaeoSuite{Name: "q", WritePct: 6}, false, 0)
	mo, _ := BuildDromaeo(DromaeoSuite{Name: "m", WritePct: 85}, false, 0)
	if bytes.Equal(q.ELF, mo.ELF) {
		t.Fatal("suites with different write density built identical binaries")
	}
}

// TestNewMachineAllocGate holds what a machine costs before it runs
// anything: the 4 MB stack is a reservation, so setting one up is a few
// small allocations (maps, bindings, the engine and the one stack page
// the exit sentinel is written to), not a thousand zeroed pages.
// BenchmarkNewMachine in the root package reads the same figures.
func TestNewMachineAllocGate(t *testing.T) {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { NewMachine(nil) })
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("NewMachine: %.0f allocations, %d bytes", allocs, perRun)
	if allocs > 32 {
		t.Errorf("NewMachine makes %.0f allocations, want <= 32", allocs)
	}
	if perRun > 64<<10 {
		t.Errorf("NewMachine allocates %d bytes, want <= 64 KB", perRun)
	}
}
