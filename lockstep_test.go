package e9patch

import (
	"bytes"
	"fmt"

	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/x86"
)

// Lock-step differential execution. Paper §2 says every original
// instruction is preserved, evicted equivalently or patched, so wherever
// the rewritten program executes original code its state must equal the
// original program's at the same instruction, not only at exit. The
// helper runs the original and the rewritten image on two interpreter
// machines. It steps the rewritten one until it is about to execute an
// original instruction in .text: one the rewrite left alone, or a
// patched one, a site or an evicted neighbour, whose address the
// original run executes, before its jump or int3 leaves for a
// trampoline. That is a sync point. It then steps the original machine
// until it reaches the same address (see sync), and compares
//
//   - the general-purpose registers,
//   - the status flags (CF, PF, AF, ZF, SF, OF),
//   - every byte either machine wrote since the last sync point,
//
// and at exit the output, the exit status, the registers and the whole
// memory, with emu.DiffMemory. Not compared are the text, which the
// rewrite changed; the bytes only the rewritten image's loader writes,
// which are the trampoline pages; the instrumentation's own ranges,
// which the caller states; and the stack below RSP, where trampolines
// push.
//
// It shares nothing with the patcher: it reads the two images, decodes
// original instructions and runs both machines.

// statusFlags are the arithmetic flags of RFLAGS.
const statusFlags = emu.FlagCF | emu.FlagPF | emu.FlagAF | emu.FlagZF | emu.FlagSF | emu.FlagOF

const (
	// lockBudget bounds the rewritten run, in instructions.
	lockBudget = 200_000_000
	// lockReach bounds the instructions the original machine executes
	// to reach the next sync point (or its exit).
	lockReach = 1 << 20
)

// lockEnv is what a lock-step run is told about the address space.
type lockEnv struct {
	// machine returns a fresh machine for the original or the
	// rewritten image, with the runtime bindings that image needs.
	machine func(rewritten bool) *emu.Machine
	// exclude are the instrumentation's address ranges, [lo, hi).
	exclude [][2]uint64
	// stackLo is the lowest stack address: [stackLo, RSP) is scratch.
	stackLo uint64
	// entry, when not 0, is where both runs start instead of the
	// image's entry point: a DSO is entered at its text.
	entry uint64
}

// boot loads bin into m and points RIP at the run's start.
func (env lockEnv) boot(m *emu.Machine, bin []byte) error {
	entry, err := Load(m, bin)
	if env.entry != 0 {
		entry = env.entry
	}
	m.RIP = entry
	return err
}

// lockSide is one machine of the pair and the byte ranges it wrote
// since the last sync point.
type lockSide struct {
	m     *emu.Machine
	dirty [][2]uint64
}

type lockStep struct {
	env         lockEnv
	orig, rew   *lockSide
	text, rtext []byte
	textAddr    uint64
	// ran are the addresses the original run executes.
	ran map[uint64]bool
	// kind caches, per text offset, whether it is a sync point (1) or
	// not (-1).
	kind []int8
	// origLoad and rewLoad are the ranges each image's loader wrote.
	origLoad, rewLoad [][2]uint64
	syncs             int
}

// runLockStep runs input and output, its rewrite, in lock step. The
// returned state holds the two machines and the number of sync points,
// also when the runs diverge; it is nil when an image does not load.
func runLockStep(input, output []byte, env lockEnv) (*lockStep, error) {
	ls := &lockStep{env: env}
	var err error
	if ls.text, ls.textAddr, err = loadedText(input); err != nil {
		return nil, err
	}
	if ls.rtext, _, err = loadedText(output); err != nil {
		return nil, err
	}
	if len(ls.rtext) != len(ls.text) {
		return nil, fmt.Errorf("the rewrite's text is %d bytes, the original's %d", len(ls.rtext), len(ls.text))
	}
	ls.kind = make([]int8, len(ls.text))
	if ls.ran, err = executedBy(input, env); err != nil {
		return nil, fmt.Errorf("original: %w", err)
	}
	if ls.orig, ls.origLoad, err = ls.load(input, false); err != nil {
		return nil, fmt.Errorf("original: %w", err)
	}
	if ls.rew, ls.rewLoad, err = ls.load(output, true); err != nil {
		return nil, fmt.Errorf("rewritten: %w", err)
	}
	return ls, ls.run()
}

// loadedText returns the text of an image and its loaded address.
func loadedText(bin []byte) ([]byte, uint64, error) {
	f, err := elf64.Parse(bin)
	if err != nil {
		return nil, 0, err
	}
	off, addr, size, err := f.TextRange()
	if err != nil {
		return nil, 0, err
	}
	if f.IsPIE() {
		addr += PIEBase
	}
	return bin[off : off+size], addr, nil
}

// executedBy returns the addresses of the instructions that the run of
// input executes.
func executedBy(input []byte, env lockEnv) (map[uint64]bool, error) {
	ran := map[uint64]bool{}
	m := env.machine(false)
	m.Engine = nil
	m.Trace = func(in *x86.Inst) { ran[in.Addr] = true }
	if err := env.boot(m, input); err != nil {
		return nil, err
	}
	return ran, m.Run(lockBudget)
}

// load builds the machine for bin, noting what its loader writes, and
// then tracks the writes of the run.
func (ls *lockStep) load(bin []byte, rewritten bool) (*lockSide, [][2]uint64, error) {
	s := &lockSide{m: ls.env.machine(rewritten)}
	s.m.Engine = nil
	var loaded [][2]uint64
	s.m.Mem.SetWriteBarrier(func(addr, n uint64) { loaded = append(loaded, [2]uint64{addr, addr + n}) })
	if err := ls.env.boot(s.m, bin); err != nil {
		return nil, nil, err
	}
	s.m.Mem.SetWriteBarrier(func(addr, n uint64) { s.dirty = append(s.dirty, [2]uint64{addr, addr + n}) })
	return s, loaded, nil
}

func inRanges(rs [][2]uint64, a uint64) bool {
	for _, r := range rs {
		if a >= r[0] && a < r[1] {
			return true
		}
	}
	return false
}

// excluded reports whether the byte at a is left out of the comparison
// while the stack pointer is rsp.
func (ls *lockStep) excluded(a, rsp uint64) bool {
	return a-ls.textAddr < uint64(len(ls.text)) ||
		a >= ls.env.stackLo && a < rsp ||
		inRanges(ls.env.exclude, a) ||
		inRanges(ls.rewLoad, a) && !inRanges(ls.origLoad, a)
}

// syncPoint reports whether rip starts an original instruction that
// the original run executes or whose bytes the rewrite left alone.
func (ls *lockStep) syncPoint(rip uint64) bool {
	o := rip - ls.textAddr
	if o >= uint64(len(ls.text)) {
		return false
	}
	if k := ls.kind[o]; k != 0 {
		return k > 0
	}
	in, err := x86.Decode(ls.text[o:], rip)
	ok := ls.ran[rip] || err == nil && bytes.Equal(ls.text[o:o+uint64(in.Len)], ls.rtext[o:o+uint64(in.Len)])
	ls.kind[o] = -1
	if ok {
		ls.kind[o] = 1
	}
	return ok
}

func (ls *lockStep) run() error {
	r := ls.rew.m
	for !r.Halted() {
		if r.Counters.Instructions >= lockBudget {
			return fmt.Errorf("the rewritten run exceeds %d instructions", lockBudget)
		}
		if ls.syncPoint(r.RIP) {
			if err := ls.sync(); err != nil {
				return err
			}
		}
		if err := r.Step(); err != nil {
			return fmt.Errorf("rewritten run at %#x: %w", r.RIP, err)
		}
	}
	o := ls.orig.m
	for n := 0; !o.Halted(); n++ {
		if n >= lockReach {
			return fmt.Errorf("the original run does not exit: at %#x after %d instructions", o.RIP, n)
		}
		if err := o.Step(); err != nil {
			return fmt.Errorf("original run at %#x: %w", o.RIP, err)
		}
	}
	if fmt.Sprint(o.Output) != fmt.Sprint(r.Output) || o.ExitCode != r.ExitCode {
		return fmt.Errorf("output %v exit %#x, original %v exit %#x", r.Output, r.ExitCode, o.Output, o.ExitCode)
	}
	if err := ls.compareState("exit"); err != nil {
		return err
	}
	return ls.compareMemory()
}

// sync brings the original machine to the rewritten one's RIP and
// compares the two. An epilogue may run a loop iteration out of the
// text, so that the rewritten machine is back at an address only when
// the original is there for the second time: the original machine
// advances to the first visit whose registers and flags equal the
// rewritten machine's, and the first mismatch is the error when no
// visit within lockReach instructions does.
func (ls *lockStep) sync() error {
	o, r := ls.orig.m, ls.rew.m
	rip := r.RIP
	ls.syncs++
	where := fmt.Sprintf("sync point %d at %#x", ls.syncs, rip)
	var mismatch error
	for n := 0; ; n++ {
		if o.RIP == rip {
			err := ls.compareState(where)
			if err == nil {
				break
			}
			if mismatch == nil {
				mismatch = err
			}
		}
		if o.Halted() || n >= lockReach {
			if mismatch != nil {
				return mismatch
			}
			return fmt.Errorf("%s: the original run stops at %#x after %d instructions", where, o.RIP, n)
		}
		if err := o.Step(); err != nil {
			return fmt.Errorf("%s: original run at %#x: %w", where, o.RIP, err)
		}
	}
	rsp := r.Regs[x86.RSP]
	for _, s := range []*lockSide{ls.orig, ls.rew} {
		for _, d := range s.dirty {
			a, _ := o.Mem.ReadBytes(d[0], int(d[1]-d[0]))
			b, _ := r.Mem.ReadBytes(d[0], int(d[1]-d[0]))
			for i := range a {
				if addr := d[0] + uint64(i); a[i] != b[i] && !ls.excluded(addr, rsp) {
					return fmt.Errorf("%s: memory at %#x is %#02x, original %#02x", where, addr, b[i], a[i])
				}
			}
		}
		s.dirty = s.dirty[:0]
	}
	return nil
}

// compareState compares the registers and the status flags.
func (ls *lockStep) compareState(where string) error {
	o, r := ls.orig.m, ls.rew.m
	for i := range o.Regs {
		if o.Regs[i] != r.Regs[i] {
			return fmt.Errorf("%s: %v is %#x, original %#x", where, x86.Reg(i), r.Regs[i], o.Regs[i])
		}
	}
	if d := (o.Flags ^ r.Flags) & statusFlags; d != 0 {
		return fmt.Errorf("%s: flags %#x, original %#x", where, r.Flags&statusFlags, o.Flags&statusFlags)
	}
	return nil
}

// compareMemory holds the two memories equal with emu.DiffMemory,
// blanking the excluded bytes of each page it finds a difference in.
func (ls *lockStep) compareMemory() error {
	o, r := ls.orig.m.Mem, ls.rew.m.Mem
	o.SetWriteBarrier(nil)
	r.SetWriteBarrier(nil)
	rsp := ls.rew.m.Regs[x86.RSP]
	for {
		addr, diff := emu.DiffMemory(o, r)
		if !diff {
			return nil
		}
		if !ls.excluded(addr, rsp) {
			a, _ := o.ReadBytes(addr, 1)
			b, _ := r.ReadBytes(addr, 1)
			return fmt.Errorf("exit: memory at %#x is %#02x, original %#02x", addr, b[0], a[0])
		}
		page := addr &^ (emu.PageSize - 1)
		for _, m := range []*emu.Memory{o, r} {
			p, _ := m.ReadBytes(page, emu.PageSize)
			for i := range p {
				if ls.excluded(page+uint64(i), rsp) {
					p[i] = 0
				}
			}
			m.WriteBytes(page, p)
		}
	}
}
