package enginetest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"e9patch"
	"e9patch/internal/emu"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

var updateGolden = flag.Bool("update-golden", false,
	"re-record testdata/emu_golden from the interpreter")

// maxGoldenSnapshots caps each trace so golden files stay reviewable;
// execution continues past the cap, only recording stops.
const maxGoldenSnapshots = 400

// goldenProg is one corpus entry: a machine factory plus run budget.
type goldenProg struct {
	name   string
	setup  func(eng emu.Engine) *emu.Machine
	budget uint64
}

// goldenPrograms builds the corpus: every flag-stress program (the
// lazy-flag hazard set), a self-modifying loop (cache invalidation
// mid-trace), and a call-heavy kernel (runtime-call episodes between
// blocks).
func goldenPrograms(t *testing.T) []goldenProg {
	t.Helper()
	const base = 0x401000
	var progs []goldenProg

	stress := flagStressPrograms(base)
	// Iterate in a fixed order so the corpus listing is stable.
	names := make([]string, 0, len(stress))
	for name := range stress {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		text := stress[name]
		progs = append(progs, goldenProg{
			name:   name,
			setup:  func(eng emu.Engine) *emu.Machine { return rawMachine(eng, base, text) },
			budget: 10_000,
		})
	}

	smc := SMCPatchLoop(base)
	progs = append(progs, goldenProg{
		name:   "smc-patch-loop",
		setup:  func(eng emu.Engine) *emu.Machine { return rawMachine(eng, base, smc) },
		budget: 10_000,
	})

	// A call-heavy kernel: covers call/ret blocks and the stepSpecial
	// runtime-call boundary inside a golden trace.
	saved := workload.KernelIters
	workload.KernelIters = 2
	kernel, err := workload.BuildKernel("callheavy", false)
	workload.KernelIters = saved
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, goldenProg{
		name: "callheavy-2iter",
		setup: func(eng emu.Engine) *emu.Machine {
			m := workload.NewMachine(nil)
			m.Engine = eng
			entry, err := e9patch.Load(m, kernel.ELF)
			if err != nil {
				t.Fatal(err)
			}
			m.RIP = entry
			return m
		},
		budget: 10_000_000,
	})
	return progs
}

// snapshotLine formats one pre-execution architectural snapshot:
// instruction index, address, flags, then all sixteen registers.
func snapshotLine(idx int, addr uint64, m *emu.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %x %x", idx, addr, m.Flags)
	for _, r := range m.Regs {
		fmt.Fprintf(&b, " %x", r)
	}
	return b.String()
}

// recordTrace runs the program under the named engine with a tracer
// capturing a snapshot before every retired instruction.
func recordTrace(t *testing.T, p goldenProg, engine string) []string {
	t.Helper()
	m := p.setup(newEngine(t, engine))
	var lines []string
	m.Trace = func(inst *x86.Inst) {
		if len(lines) >= maxGoldenSnapshots {
			return
		}
		lines = append(lines, snapshotLine(len(lines), inst.Addr, m))
	}
	if err := m.Run(p.budget); err != nil {
		t.Fatalf("%s under %s: %v", p.name, engine, err)
	}
	return lines
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "emu_golden", name+".trace")
}

func loadGolden(t *testing.T, name string) []string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden trace (run with -update-golden to record): %v", err)
	}
	var lines []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		lines = append(lines, l)
	}
	return lines
}

// TestEngineGoldenTraces replays the committed per-instruction
// register+flag snapshots against every engine. Unlike the
// final-state parity tests, a regression here names the first
// diverging instruction. -update-golden re-records the corpus from the
// interpreter.
func TestEngineGoldenTraces(t *testing.T) {
	for _, p := range goldenPrograms(t) {
		t.Run(p.name, func(t *testing.T) {
			if *updateGolden {
				lines := recordTrace(t, p, "interp")
				var b strings.Builder
				fmt.Fprintf(&b, "# golden architectural trace: %s\n", p.name)
				b.WriteString("# format: idx addr flags rax rcx rdx rbx rsp rbp rsi rdi r8..r15 (hex)\n")
				for _, l := range lines {
					b.WriteString(l)
					b.WriteByte('\n')
				}
				if err := os.MkdirAll(filepath.Dir(goldenPath(p.name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(p.name), []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want := loadGolden(t, p.name)
			for _, engine := range emu.EngineNames() {
				got := recordTrace(t, p, engine)
				n := len(got)
				if len(want) < n {
					n = len(want)
				}
				diverged := false
				for i := 0; i < n; i++ {
					if got[i] != want[i] {
						t.Errorf("%s: first divergence at instruction %d:\ngolden: %s\n%s: %s",
							engine, i, want[i], engine, got[i])
						diverged = true
						break
					}
				}
				if !diverged && len(got) != len(want) {
					t.Errorf("%s: trace length %d, golden %d (diverged after common prefix)",
						engine, len(got), len(want))
				}
			}
		})
	}
}
