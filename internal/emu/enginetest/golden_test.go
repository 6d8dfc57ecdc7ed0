package enginetest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"e9patch"
	"e9patch/internal/emu"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

var updateGolden = flag.Bool("update-golden", false,
	"re-record testdata/emu_golden and testdata/counters.golden from the interpreter")

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

// The Counters golden. Every program the conformance suite runs
// (diffStates) and every executable of the CPU table ends with the
// interpreter's Counters recorded in testdata/counters.golden, one line
// per program name and conformance case: the number of runs under that
// name and the sum of their Counters. Both engines are held to it, so a
// cost charge that drifts the same way in both, which comparing one
// engine with the other cannot see, fails here. -update-golden
// re-records the entries of the programs that ran, from the
// interpreter.

// countersPath is the Counters golden.
var countersPath = filepath.Join("testdata", "counters.golden")

// programCounts is one golden entry: runs programs, and the sum of
// their Counters.
type programCounts struct {
	runs int
	c    emu.Counters
}

func (p programCounts) String() string {
	c := p.c
	return fmt.Sprintf("%d %d %d %d %d %d %d", p.runs, c.Instructions, c.Cycles, c.TakenBranches, c.FarJumps, c.Signals, c.RuntimeCalls)
}

// add adds one run's Counters to p.
func (p *programCounts) add(c emu.Counters) {
	p.runs++
	p.c.Instructions += c.Instructions
	p.c.Cycles += c.Cycles
	p.c.TakenBranches += c.TakenBranches
	p.c.FarJumps += c.FarJumps
	p.c.Signals += c.Signals
	p.c.RuntimeCalls += c.RuntimeCalls
}

// counters holds the golden as loaded and the sums of the runs of each
// test still running, by key and side (countRun).
var counters struct {
	sync.Mutex
	want    map[string]programCounts
	running map[*testing.T]map[string]*[2]programCounts
}

func init() { countRun = countCounters }

// countCounters adds c to the sum of key's runs on side in test t, and,
// at the first run t makes, arranges for t to hold its sums to the
// golden when it ends.
func countCounters(t *testing.T, key string, side int, c emu.Counters) {
	counters.Lock()
	defer counters.Unlock()
	if counters.running == nil {
		counters.running = map[*testing.T]map[string]*[2]programCounts{}
	}
	sums := counters.running[t]
	if sums == nil {
		sums = map[string]*[2]programCounts{}
		counters.running[t] = sums
		t.Cleanup(func() { checkCounters(t) })
	}
	if sums[key] == nil {
		sums[key] = new([2]programCounts)
	}
	sums[key][side].add(c)
}

// checkCounters holds the sums of t's runs to the golden, or with
// -update-golden writes the interpreter's into it.
func checkCounters(t *testing.T) {
	counters.Lock()
	defer counters.Unlock()
	sums := counters.running[t]
	delete(counters.running, t)
	if counters.want == nil {
		counters.want = loadCounters(t)
	}
	keys := make([]string, 0, len(sums))
	for key := range sums {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if *updateGolden {
			counters.want[key] = sums[key][0]
			continue
		}
		want, ok := counters.want[key]
		if !ok {
			t.Errorf("%s: no golden Counters (record with -update-golden)", key)
			continue
		}
		for side, got := range sums[key] {
			if got != want {
				t.Errorf("%s: %s runs, instructions, cycles, taken, far, signals, runtime calls %v, golden %v",
					key, []string{"interp", "engine"}[side], got, want)
			}
		}
	}
	if *updateGolden {
		writeCounters(t, counters.want)
	}
}

// loadCounters reads the golden; a missing file reads as empty. It
// runs in a Cleanup, so it reports a bad file with t.Errorf.
func loadCounters(t *testing.T) map[string]programCounts {
	want := map[string]programCounts{}
	raw, err := os.ReadFile(countersPath)
	if err != nil {
		if !os.IsNotExist(err) {
			t.Error(err)
		}
		return want
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, nums, _ := strings.Cut(line, "\t")
		var p programCounts
		c := &p.c
		if _, err := fmt.Sscan(nums, &p.runs, &c.Instructions, &c.Cycles, &c.TakenBranches, &c.FarJumps, &c.Signals, &c.RuntimeCalls); err != nil {
			t.Errorf("%s: %q: %v", countersPath, line, err)
			continue
		}
		want[key] = p
	}
	return want
}

// writeCounters writes the golden, sorted by key.
func writeCounters(t *testing.T, want map[string]programCounts) {
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# Counters of the interpreter's runs of each enginetest program (golden_test.go)\n")
	b.WriteString("# format: case/program<TAB>runs instructions cycles taken far signals runtime-calls\n")
	for _, key := range keys {
		fmt.Fprintf(&b, "%s\t%v\n", key, want[key])
	}
	if err := os.WriteFile(countersPath, []byte(b.String()), 0o644); err != nil {
		t.Error(err)
	}
}
