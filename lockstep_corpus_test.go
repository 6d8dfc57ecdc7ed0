package e9patch

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"e9patch/internal/emu"
	"e9patch/internal/lowfat"
	"e9patch/internal/patch"
	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// lockStepFull runs the lock-step corpus at full size; `make difftest`
// sets it.
var lockStepFull = flag.Bool("lockstep.full", false, "run the lock-step corpus at full size")

// The instrumentation's addresses in the lock-step corpus.
const (
	lockCounter = 0x3_0000_0000
	lockFn      = 0x3_0001_0000
)

// lockCell is one input and configuration run in lock step.
type lockCell struct {
	name   string
	input  []byte
	cfg    Config
	env    lockEnv
	checks []lockCheck
}

// lockRun is what a cell's expectations read: the rewrite, the two
// lock-step machines (the exit comparison blanks their memories where
// it excludes bytes) and the rewritten image's run under
// workload.Engine, whose memory is whole.
type lockRun struct {
	res            *Result
	orig, rew, eng *emu.Machine
}

// lockCheck is one expectation of a cell beyond lock-step equivalence.
type lockCheck func(t *testing.T, r *lockRun)

// lockTemplates are the instrumentations of the corpus; lowfat is an A2
// application only.
var lockTemplates = []string{"empty", "counter", "contextcall", "lowfat"}

// lockCellFor configures input under the application sel and the named
// template. sel is A1 or A2; T3, A1 with T1 and T2 off, so that short
// jccs fall through to neighbour eviction; noT3, A1 with T3 off; B0, A1
// with every tactic off and the B0 fallback on; all, every instruction;
// or all-b0, every instruction with the B0 fallback.
func lockCellFor(name string, input []byte, sel, tmpl string) lockCell {
	cfg := Config{Select: SelectJumps, ReserveVA: append(workload.ReserveVA(),
		[2]uint64{lockCounter, lockCounter + 0x1000}, [2]uint64{lockFn, lockFn + 0x1000})}
	p := &cfg.Patch
	switch sel {
	case "A2":
		cfg.Select = SelectHeapWrites
	case "T3":
		p.DisableT1, p.DisableT2 = true, true
	case "noT3":
		p.DisableT3 = true
	case "B0":
		p.DisableT1, p.DisableT2, p.DisableT3, p.B0Fallback = true, true, true, true
	case "all", "all-b0":
		cfg.Select, p.B0Fallback = SelectAll, sel == "all-b0"
	}
	exclude := [][2]uint64{{lockCounter, lockCounter + 0x1000}, {lockFn, lockFn + 0x1000}}
	var bind workload.MallocBinding
	switch tmpl {
	case "counter":
		cfg.Template = trampoline.Counter{Addr: lockCounter}
	case "contextcall":
		cfg.Template = trampoline.ContextCall{Fn: lockFn}
	case "lowfat":
		cfg.Template = lowfat.CheckTemplate{}
		cfg.ReserveVA = append(cfg.ReserveVA, lowfat.ReserveVA()...)
		exclude = append(exclude, lowfat.ReserveVA()...)
		bind = func(m *emu.Machine) { lowfat.Install(m, workload.RTMalloc, workload.RTFree) }
	}
	return lockCell{
		name:  name + "/" + tmpl + "/" + sel,
		input: input,
		cfg:   cfg,
		env: lockEnv{
			machine: func(rewritten bool) *emu.Machine {
				m := workload.NewMachine(bind)
				workload.BindJit(m)
				if rewritten {
					m.Mem.Map(lockCounter, 8)
					m.Runtime[lockFn] = func(*emu.Machine) error { return nil }
				}
				return m
			},
			exclude: exclude,
			stackLo: workload.StackTop - workload.StackSize,
		},
	}
}

// lockStepCells is the corpus. The five kernels, as executables and as
// PIEs, run under every template and application; branchy also under
// B0 only, the six match expressions and the syscall_trace recipe;
// pointer and branchy at granularity 16 and -1; the first four Dromaeo
// suites with their JIT; the CET program under superset-cet, and as a
// DSO entered at its text; the jump-target program; and genProgram's
// random programs (every other one PIE) under A1, A2, T3, noT3 and
// all-b0 with the empty and the counter template. full runs longer
// kernels and more programs.
func lockStepCells(t *testing.T, full bool) []lockCell {
	iters, programs := 40, 2
	if full {
		iters, programs = 5000, 24
	}
	saved := workload.KernelIters
	workload.KernelIters = iters
	defer func() { workload.KernelIters = saved }()
	var cells []lockCell
	add := func(c lockCell, checks ...lockCheck) {
		c.checks = append(c.checks, checks...)
		cells = append(cells, c)
	}
	for _, arch := range []string{"branchy", "memstream", "matrix", "pointer", "callheavy"} {
		for _, pie := range []bool{false, true} {
			name, bin := arch, lockKernel(t, arch, pie)
			if pie {
				name += "/pie"
			}
			for _, tmpl := range lockTemplates {
				for _, sel := range []string{"A1", "A2"} {
					if tmpl == "lowfat" && sel == "A1" {
						continue
					}
					c := lockCellFor(name, bin, sel, tmpl)
					c.checks = append(c.checks, expectSucc(90))
					if sel == "A1" {
						c.checks = append(c.checks, expectFarJumps)
					}
					if pie {
						c.checks = append(c.checks, expectPIE(sel == "A2"))
					}
					if tmpl == "counter" {
						c.checks = append(c.checks, expectCount)
					}
					add(c)
				}
			}
		}
	}

	branchy := lockKernel(t, "branchy", false)
	add(lockCellFor("branchy", branchy, "B0", "empty"), expectSignals, func(t *testing.T, r *lockRun) {
		if o, p := r.orig.Counters.Cycles, r.rew.Counters.Cycles; p < 3*o {
			t.Errorf("%d cycles, original %d: want at least three times as many", p, o)
		}
	})
	for _, expr := range []string{"jump | jcc", "heapwrite", "jcc & short", "mnemonic=mov & memwrite", "call | ret", "len>=5 & branch"} {
		sel, err := SelectMatch(expr)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		c := lockCellFor("branchy", branchy, "A1", "empty")
		c.name, c.cfg.Select = "branchy/match="+expr, sel
		if expr == "jump | jcc" {
			c.checks = append(c.checks, func(t *testing.T, r *lockRun) {
				if a1 := rewriteWith(t, c, func(cfg *Config) { cfg.Select = SelectJumps }); r.res.Stats.Total != a1.Stats.Total {
					t.Errorf("%d sites, SelectJumps %d", r.res.Stats.Total, a1.Stats.Total)
				}
				if _, err := SelectMatch("jcc &"); err == nil {
					t.Error(`SelectMatch accepts "jcc &"`)
				}
			})
		}
		add(c)
	}
	add(traceCell(t, branchy), func(t *testing.T, r *lockRun) {
		if n := readU64(t, r.eng.Mem, workload.TracePayloadCounterAddr()); n == 0 {
			t.Error("trace() never ran")
		}
	})

	g16 := lockCellFor("pointer", lockKernel(t, "pointer", false), "A1", "empty")
	g16.name, g16.cfg.Granularity = g16.name+"/granularity=16", 16
	add(g16, func(t *testing.T, r *lockRun) {
		g1 := rewriteWith(t, g16, func(cfg *Config) { cfg.Granularity = 1 })
		if r.res.Mappings > g1.Mappings || r.res.Group.PhysBytes() < g1.Group.PhysBytes() {
			t.Errorf("%d mappings, %d physical bytes; at granularity 1 %d and %d",
				r.res.Mappings, r.res.Group.PhysBytes(), g1.Mappings, g1.Group.PhysBytes())
		}
	})
	naive := lockCellFor("branchy", branchy, "A1", "empty")
	naive.name, naive.cfg.Granularity = naive.name+"/granularity=-1", -1
	add(naive, func(t *testing.T, r *lockRun) {
		if g1 := rewriteWith(t, naive, func(cfg *Config) { cfg.Granularity = 1 }); r.res.OutputSize < g1.OutputSize {
			t.Errorf("naive output %d bytes, grouped %d", r.res.OutputSize, g1.OutputSize)
		}
	})

	for _, s := range workload.DromaeoSuites[:4] {
		prog, err := workload.BuildDromaeo(s, true, 10)
		if err != nil {
			t.Fatal(err)
		}
		add(lockCellFor("dromaeo/"+s.Name, prog.ELF, "A2", "empty"))
	}

	cet := smallCETProgram(t, false)
	for _, sel := range []string{"A1", "A2", "all"} {
		c := lockCellFor("cet/superset-cet", cet, sel, "empty")
		c.cfg.Disasm = DisasmSupersetCET
		add(c, expectPatched, func(t *testing.T, r *lockRun) {
			if r.res.Disasm != string(DisasmSupersetCET) {
				t.Errorf("Result.Disasm %q", r.res.Disasm)
			}
		})
	}
	dso := lockCellFor("dso/superset-cet", smallCETProgram(t, true), "A2", "empty")
	dso.cfg.Disasm = DisasmSupersetCET
	var err error
	if _, dso.env.entry, err = loadedText(dso.input); err != nil {
		t.Fatal(err)
	}
	add(dso, expectPatched, expectOutput(60), func(t *testing.T, r *lockRun) {
		if r.res.Bias != PIEBase {
			t.Errorf("bias %#x, want PIEBase", r.res.Bias)
		}
	})
	add(lockCellFor("jumptarget", jumpTargetProgram(t), "A2", "empty"), expectPatched, expectOutput(1+1+2+3))

	for i := 0; i < programs; i++ {
		pie := i%2 == 0
		bin, err := genProgram(rand.New(rand.NewSource(int64(2000+i))), pie)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("genProgram/%d/pie=%v", i, pie)
		for _, tmpl := range lockTemplates[:2] {
			for _, sel := range []string{"A1", "A2", "T3", "noT3", "all-b0"} {
				c := lockCellFor(name, bin, sel, tmpl)
				if sel == "all-b0" {
					c.checks = append(c.checks, expectSucc(80), expectSignals)
				}
				add(c)
			}
		}
	}
	return cells
}

// traceCell is input under the syscall_trace recipe: a call trampoline
// passes each indirect call's address to trace() in an injected
// payload. trace() reports it through RTOutput; on the rewritten
// machine a report made from the payload is not the program's output.
func traceCell(t *testing.T, input []byte) lockCell {
	rec, ok := workload.RecipeByName("syscall_trace")
	if !ok {
		t.Fatal("syscall_trace recipe missing")
	}
	c := lockCellFor("branchy", input, "A1", "empty")
	c.name, c.cfg = "branchy/syscall_trace", buildRecipe(t, rec)
	var payload [][2]uint64
	for _, inj := range c.cfg.Inject {
		payload = append(payload, [2]uint64{inj.Addr, inj.Addr + uint64(len(inj.Data))})
	}
	machine := c.env.machine
	c.env.machine = func(rewritten bool) *emu.Machine {
		m := machine(rewritten)
		if rewritten {
			m.Runtime[workload.RTOutput] = func(m *emu.Machine) error {
				// The runtime call has popped its return address.
				ret, _ := m.Mem.ReadBytes(m.Regs[x86.RSP]-8, 8)
				if !inRanges(payload, binary.LittleEndian.Uint64(ret)) {
					m.Output = append(m.Output, m.Regs[x86.RDI])
				}
				return nil
			}
		}
		return m
	}
	return c
}

// lockKernel builds a kernel at the current workload.KernelIters.
func lockKernel(t *testing.T, arch string, pie bool) []byte {
	prog, err := workload.BuildKernel(arch, pie)
	if err != nil {
		t.Fatal(err)
	}
	return prog.ELF
}

// rewriteWith rewrites c's input with its configuration as edit leaves
// it.
func rewriteWith(t *testing.T, c lockCell, edit func(cfg *Config)) *Result {
	cfg := c.cfg
	edit(&cfg)
	res, err := Rewrite(c.input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// expectSucc expects selected sites and a Succ% of at least min.
func expectSucc(min float64) lockCheck {
	return func(t *testing.T, r *lockRun) {
		if s := r.res.Stats; s.Total == 0 || s.SuccPercent() < min {
			t.Errorf("%d sites, Succ%% %.1f: want some and at least %g", s.Total, s.SuccPercent(), min)
		}
	}
}

// expectSignals expects B0 sites and the run to dispatch signals.
func expectSignals(t *testing.T, r *lockRun) {
	if n, sig := r.res.Stats.ByTactic[patch.TacticB0], r.rew.Counters.Signals; n == 0 || sig == 0 {
		t.Errorf("%d B0 sites, %d signals: want some of each", n, sig)
	}
}

func expectPatched(t *testing.T, r *lockRun) {
	if r.res.Stats.Patched() == 0 {
		t.Error("nothing patched")
	}
}

// expectFarJumps expects the run to hop to trampolines and back.
func expectFarJumps(t *testing.T, r *lockRun) {
	if n := r.rew.Counters.FarJumps; n < 2 {
		t.Errorf("%d far jumps, want at least 2", n)
	}
}

// expectPIE expects the PIE load bias, a run that exits with a value,
// and, when base is set, at least 80 % of the sites patched by B1 or B2.
func expectPIE(base bool) lockCheck {
	return func(t *testing.T, r *lockRun) {
		if r.res.Bias != PIEBase || r.orig.ExitCode == 0 {
			t.Errorf("bias %#x, exit %#x: want PIEBase and not 0", r.res.Bias, r.orig.ExitCode)
		}
		if p := r.res.Stats.BasePercent(); base && p < 80 {
			t.Errorf("Base%% %.1f, want at least 80", p)
		}
	}
}

// expectCount expects the counter template's counter above 0.
func expectCount(t *testing.T, r *lockRun) {
	if readU64(t, r.eng.Mem, lockCounter) == 0 {
		t.Error("the counter never counted")
	}
}

// expectOutput expects the original run to output exactly v.
func expectOutput(v uint64) lockCheck {
	return func(t *testing.T, r *lockRun) {
		if len(r.orig.Output) != 1 || r.orig.Output[0] != v {
			t.Errorf("output %v, want [%d]", r.orig.Output, v)
		}
	}
}

// runCell rewrites the cell's input, runs it in lock step, runs the
// rewrite once more under workload.Engine, which must end in the
// rewritten interpreter run's output, exit code, registers and
// counters, and holds the cell to its expectations. It returns the
// number of sync points.
func runCell(t *testing.T, c lockCell) int {
	t.Helper()
	res, err := Rewrite(c.input, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	verifyRewrite(t, c.name, c.input, c.cfg, res)
	ls, err := runLockStep(c.input, res.Output, c.env)
	if err != nil {
		t.Fatal(err)
	}
	r := &lockRun{res: res, orig: ls.orig.m, rew: ls.rew.m, eng: c.env.machine(true)}
	if err := c.env.boot(r.eng, res.Output); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.Run(lockBudget); err != nil {
		t.Fatalf("%s engine: %v", workload.Engine, err)
	}
	if fmt.Sprint(r.eng.Output) != fmt.Sprint(r.rew.Output) || r.eng.ExitCode != r.rew.ExitCode ||
		r.eng.Regs != r.rew.Regs || r.eng.Counters != r.rew.Counters {
		t.Errorf("%s engine: output %v exit %#x counters %+v; interpreter %v exit %#x counters %+v",
			workload.Engine, r.eng.Output, r.eng.ExitCode, r.eng.Counters, r.rew.Output, r.rew.ExitCode, r.rew.Counters)
	}
	if r.rew.Counters.Cycles < r.orig.Counters.Cycles {
		t.Errorf("the rewrite ran in %d cycles, the original in %d", r.rew.Counters.Cycles, r.orig.Counters.Cycles)
	}
	for _, check := range c.checks {
		check(t, r)
	}
	return ls.syncs
}

// TestLockStep runs every cell of the corpus and reports its sync
// points, so that a vacuous pass shows.
func TestLockStep(t *testing.T) {
	for _, c := range lockStepCells(t, *lockStepFull) {
		t.Run(c.name, func(t *testing.T) {
			n := runCell(t, c)
			if n == 0 {
				t.Fatal("no sync point")
			}
			t.Logf("%d sync points", n)
		})
	}
}

// FuzzLockStep runs genProgram's random programs in lock step under a
// seeded random selection, each instruction with probability
// 1/(1+knobs>>5), and the switches in knobs: bits 0-2 turn T1, T2 and
// T3 off, bit 3 turns the B0 fallback on, bit 4 picks the counter
// template over the empty one. Plain `go test` runs the seed corpus.
func FuzzLockStep(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed%2 == 0, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, pie bool, knobs uint8) {
		bin, err := genProgram(rand.New(rand.NewSource(seed)), pie)
		if err != nil {
			t.Skip() // assembler rejected the combination; not a rewrite bug
		}
		tmpl := "empty"
		if knobs&16 != 0 {
			tmpl = "counter"
		}
		c := lockCellFor("genProgram", bin, "A1", tmpl)
		c.cfg.Select = func(locs []x86.Loc) []int {
			rng := rand.New(rand.NewSource(seed))
			var sel []int
			for i := range locs {
				if rng.Intn(1+int(knobs>>5)) == 0 {
					sel = append(sel, i)
				}
			}
			return sel
		}
		p := &c.cfg.Patch
		p.DisableT1, p.DisableT2, p.DisableT3, p.B0Fallback = knobs&1 != 0, knobs&2 != 0, knobs&4 != 0, knobs&8 != 0
		runCell(t, c)
	})
}

// flippedJcc is the empty template with every displaced jcc's condition
// inverted.
type flippedJcc struct{}

func (flippedJcc) AppendCode(dst []byte, inst *x86.Inst, at uint64) ([]byte, error) {
	a := x86.AppendAsm(dst, at)
	if inst.IsJcc() && inst.RelSize != 0 {
		a.JccRel32(x86.Cond(inst.Opcode&0x0F)^1, inst.Target())
		a.JmpRel32(inst.Addr + uint64(inst.Len))
	} else if err := trampoline.EmitDisplaced(&a, inst); err != nil {
		return nil, err
	}
	return a.Finish()
}

// flagCounter is trampoline.Counter without its pushfq/popfq.
type flagCounter struct{ addr uint64 }

func (c flagCounter) AppendCode(dst []byte, inst *x86.Inst, at uint64) ([]byte, error) {
	s, ok := trampoline.PickScratch(inst, 1)
	if !ok {
		return nil, fmt.Errorf("no scratch register for % x", inst.Bytes)
	}
	a := x86.AppendAsm(dst, at)
	a.PushReg(s[0])
	a.MovRegImm64(s[0], c.addr)
	a.AddMemImm8x64(x86.M(s[0], 0), 1)
	a.PopReg(s[0])
	if err := trampoline.EmitDisplaced(&a, inst); err != nil {
		return nil, err
	}
	return a.Finish()
}

// mutatedPlan plans cell, lets edit change the plan, and returns the
// applied output; edit reports whether it found what to change.
func mutatedPlan(t *testing.T, c lockCell, edit func(p *PatchPlan, text []byte, textAddr uint64, ran map[uint64]bool) bool) []byte {
	t.Helper()
	p, err := Plan(c.input, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	text, textAddr, err := loadedText(c.input)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := executedBy(c.input, c.env)
	if err != nil {
		t.Fatal(err)
	}
	if !edit(p, text, textAddr, ran) {
		t.Fatalf("%s: nothing to mutate", c.name)
	}
	res, err := Apply(c.input, p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}

// skipFirstCopy replaces the first copied instruction in the tail of an
// executed site's patch trampoline with nops.
func skipFirstCopy(p *PatchPlan, text []byte, textAddr uint64, ran map[uint64]bool) bool {
	for i := range p.Sites {
		for j := range p.Sites[i].Trampolines {
			tr := &p.Sites[i].Trampolines[j]
			if tr.Evictee || tr.For != p.Sites[i].Addr || !ran[tr.For] {
				continue
			}
			d, err := x86.Decode(text[tr.For-textAddr:], tr.For)
			if err != nil || transfer(&d) || len(tr.Code) <= d.Len+5 {
				continue
			}
			c, err := x86.Decode(tr.Code[d.Len:], tr.Addr+uint64(d.Len))
			if err != nil || transfer(&c) {
				continue
			}
			code := append([]byte(nil), tr.Code...)
			for k := d.Len; k < d.Len+c.Len; k++ {
				code[k] = 0x90
			}
			tr.Code = code
			return true
		}
	}
	return false
}

// skipBlockCopy replaces the first copied instruction of an executed
// epilogue block, a record that is neither its site's patch trampoline
// nor an evictee, with nops.
func skipBlockCopy(p *PatchPlan, text []byte, textAddr uint64, ran map[uint64]bool) bool {
	for i := range p.Sites {
		for j := range p.Sites[i].Trampolines {
			tr := &p.Sites[i].Trampolines[j]
			if tr.Evictee || tr.For == p.Sites[i].Addr || !ran[tr.For] {
				continue
			}
			d, err := x86.Decode(text[tr.For-textAddr:], tr.For)
			if err != nil || transfer(&d) {
				continue
			}
			code := append([]byte(nil), tr.Code...)
			for k := 0; k < d.Len; k++ {
				code[k] = 0x90
			}
			tr.Code = code
			return true
		}
	}
	return false
}

// offsetT3JPatch moves an executed T3 site's J_patch one byte further.
func offsetT3JPatch(p *PatchPlan, _ []byte, _ uint64, ran map[uint64]bool) bool {
	for i := range p.Sites {
		s := &p.Sites[i]
		if s.Tactic != "T3" || !ran[s.Addr] || len(s.Writes) == 0 || len(s.Writes[0].Data) < 2 {
			continue
		}
		data := append([]byte(nil), s.Writes[0].Data...)
		data[1]++
		s.Writes[0].Data = data
		return true
	}
	return false
}

// enterPastDisplaced points an executed B0 site's dispatch entry past
// the displaced instruction that starts its trampoline.
func enterPastDisplaced(p *PatchPlan, _ []byte, _ uint64, ran map[uint64]bool) bool {
	for i := range p.Sites {
		s := &p.Sites[i]
		if len(s.SigTab) == 0 || !ran[s.Addr] {
			continue
		}
		for _, tr := range s.Trampolines {
			if tr.Addr != s.SigTab[0].Trampoline {
				continue
			}
			d, err := x86.Decode(tr.Code, tr.Addr)
			if err != nil {
				continue
			}
			s.SigTab = append([]plan.SigEntry(nil), s.SigTab...)
			s.SigTab[0].Trampoline += uint64(d.Len)
			return true
		}
	}
	return false
}

// TestLockStepMutations: each seeded defect fails the lock-step check.
func TestLockStepMutations(t *testing.T) {
	saved := workload.KernelIters
	workload.KernelIters = 40
	defer func() { workload.KernelIters = saved }()
	rewrite := func(c lockCell) []byte {
		res, err := Rewrite(c.input, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}
	type mutant struct {
		name string
		cell lockCell
		out  []byte
	}
	var mutants []mutant
	add := func(name string, c lockCell, out []byte) { mutants = append(mutants, mutant{name, c, out}) }

	c := lockCellFor("branchy", lockKernel(t, "branchy", false), "A1", "empty")
	c.cfg.Template = flippedJcc{}
	add("a displaced jcc with the wrong condition", c, rewrite(c))

	// Before a displaced jcc the flags are live.
	c = lockCellFor("branchy", lockKernel(t, "branchy", false), "A1", "counter")
	c.cfg.Template = flagCounter{addr: lockCounter}
	add("a counter without pushfq/popfq", c, rewrite(c))

	c = lockCellFor("memstream", lockKernel(t, "memstream", false), "A2", "empty")
	add("an epilogue that skips a copied instruction", c, mutatedPlan(t, c, skipFirstCopy))

	c = lockCellFor("branchy", lockKernel(t, "branchy", false), "A1", "empty")
	add("an out-of-line block that skips a copied instruction", c, mutatedPlan(t, c, skipBlockCopy))

	c = t3Cell(t)
	add("a T3 J_patch off by one", c, mutatedPlan(t, c, offsetT3JPatch))

	c = lockCellFor("branchy", lockKernel(t, "branchy", false), "B0", "empty")
	add("a B0 dispatch entry past the displaced instruction", c, mutatedPlan(t, c, enterPastDisplaced))

	for _, m := range mutants {
		ls, err := runLockStep(m.cell.input, m.out, m.cell.env)
		if err == nil {
			t.Errorf("%s (%s) passed the lock-step check, %d sync points", m.name, m.cell.name, ls.syncs)
			continue
		}
		t.Logf("%s (%s): %v", m.name, m.cell.name, err)
	}
}

// t3Cell is a random program whose run executes a site patched by T3.
func t3Cell(t *testing.T) lockCell {
	bin, err := genProgram(rand.New(rand.NewSource(2003)), false)
	if err != nil {
		t.Fatal(err)
	}
	return lockCellFor("genProgram/3/pie=false", bin, "T3", "empty")
}
