package e9patch

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"e9patch/internal/emu"
	"e9patch/internal/lowfat"
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
	name  string
	input []byte
	cfg   Config
	env   lockEnv
}

// lockTemplates are the instrumentations of the corpus; lowfat is an A2
// application only.
var lockTemplates = []string{"empty", "counter", "contextcall", "lowfat"}

// lockCellFor configures input under the application sel and the named
// template. sel is A1 or A2, or T3: A1 with T1 and T2 turned off, so
// that short jccs fall through to neighbour eviction.
func lockCellFor(name string, input []byte, sel, tmpl string) lockCell {
	cfg := Config{Select: SelectJumps, ReserveVA: append(workload.ReserveVA(),
		[2]uint64{lockCounter, lockCounter + 0x1000}, [2]uint64{lockFn, lockFn + 0x1000})}
	switch sel {
	case "A2":
		cfg.Select = SelectHeapWrites
	case "T3":
		cfg.Patch.DisableT1, cfg.Patch.DisableT2 = true, true
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

// lockStepCells is the corpus: the five kernels under every template
// and application, and genProgram's random programs (every other one
// PIE) under A1, A2 and T3 with the empty and the counter template. full
// runs longer kernels and more programs.
func lockStepCells(t *testing.T, full bool) []lockCell {
	iters, programs := 40, 2
	if full {
		iters, programs = 5000, 24
	}
	saved := workload.KernelIters
	workload.KernelIters = iters
	defer func() { workload.KernelIters = saved }()
	var cells []lockCell
	for _, arch := range []string{"branchy", "memstream", "matrix", "pointer", "callheavy"} {
		prog, err := workload.BuildKernel(arch, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, tmpl := range lockTemplates {
			for _, sel := range []string{"A1", "A2"} {
				if tmpl != "lowfat" || sel == "A2" {
					cells = append(cells, lockCellFor(arch, prog.ELF, sel, tmpl))
				}
			}
		}
	}
	for i := 0; i < programs; i++ {
		pie := i%2 == 0
		bin, err := genProgram(rand.New(rand.NewSource(int64(2000+i))), pie)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("genProgram/%d/pie=%v", i, pie)
		for _, tmpl := range lockTemplates[:2] {
			for _, sel := range []string{"A1", "A2", "T3"} {
				cells = append(cells, lockCellFor(name, bin, sel, tmpl))
			}
		}
	}
	return cells
}

// TestLockStep runs every cell of the corpus in lock step and reports
// its sync points, so that a vacuous pass shows.
func TestLockStep(t *testing.T) {
	for _, c := range lockStepCells(t, *lockStepFull) {
		res, err := Rewrite(c.input, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n, err := runLockStep(c.input, res.Output, c.env)
		switch {
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case n == 0:
			t.Errorf("%s: no sync point", c.name)
		default:
			t.Logf("%s: %d sync points", c.name, n)
		}
	}
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

// executed returns the addresses the original run of cell executes.
func executed(t *testing.T, c lockCell) map[uint64]bool {
	t.Helper()
	seen := map[uint64]bool{}
	m := c.env.machine(false)
	m.Engine = nil
	m.Trace = func(in *x86.Inst) { seen[in.Addr] = true }
	entry, err := Load(m, c.input)
	if err != nil {
		t.Fatal(err)
	}
	m.RIP = entry
	if err := m.Run(lockBudget); err != nil {
		t.Fatal(err)
	}
	return seen
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
	if !edit(p, text, textAddr, executed(t, c)) {
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

// TestLockStepMutations: each seeded defect fails the lock-step check.
func TestLockStepMutations(t *testing.T) {
	saved := workload.KernelIters
	workload.KernelIters = 40
	defer func() { workload.KernelIters = saved }()
	kernel := func(arch string) []byte {
		prog, err := workload.BuildKernel(arch, false)
		if err != nil {
			t.Fatal(err)
		}
		return prog.ELF
	}
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

	c := lockCellFor("branchy", kernel("branchy"), "A1", "empty")
	c.cfg.Template = flippedJcc{}
	add("a displaced jcc with the wrong condition", c, rewrite(c))

	// Before a displaced jcc the flags are live.
	c = lockCellFor("branchy", kernel("branchy"), "A1", "counter")
	c.cfg.Template = flagCounter{addr: lockCounter}
	add("a counter without pushfq/popfq", c, rewrite(c))

	c = lockCellFor("memstream", kernel("memstream"), "A2", "empty")
	add("an epilogue that skips a copied instruction", c, mutatedPlan(t, c, skipFirstCopy))

	c = lockCellFor("branchy", kernel("branchy"), "A1", "empty")
	add("an out-of-line block that skips a copied instruction", c, mutatedPlan(t, c, skipBlockCopy))

	c = t3Cell(t)
	add("a T3 J_patch off by one", c, mutatedPlan(t, c, offsetT3JPatch))

	for _, m := range mutants {
		n, err := runLockStep(m.cell.input, m.out, m.cell.env)
		if err == nil {
			t.Errorf("%s (%s) passed the lock-step check, %d sync points", m.name, m.cell.name, n)
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
