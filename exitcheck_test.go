package e9patch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/lowfat"
	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// The exit check: every trampoline of a plan, held against the original
// text by code that shares nothing with the patcher (no patch, group or
// va; the decoder, the plan's own records and the template only). A
// trampoline of the empty template, or an evictee's, is the displaced
// instruction D's emulation. Any other template's is that template's own
// code for D at the trampoline's address. Every direct branch of an
// emulation into the text (a jcc's taken edge, the jmp to D's successor,
// the final jump of a jmp or call) either reaches its original target T,
// in one of three ways:
//
//   - T itself;
//   - T's patch trampoline, when T is a patched site;
//   - a block record for T in the branch's page;
//
// or, when it is a jmp, is replaced by a tail standing for the original
// code at T. A block is a record that is neither its site's patch
// trampoline nor an evictee, and is such a tail for its own For. Reading
// a tail from T, each instruction is one of
//
//   - a copy of the original instruction, equal up to the RIP-relative
//     displacement and reaching the same address through it; no copy
//     starts at a patched site, and none has one inside it;
//   - at a patched site, a jump to that site's patch trampoline or to
//     the site itself, and the end;
//   - the emulation of a control transfer found there, its branches as
//     above, and the end;
//   - a branch reaching the original address after the copies, and the
//     end;
//
// and whatever follows the end is int3 padding. That also holds every
// rel32 branch in a trampoline to its intended absolute target.

// exitChecker knows the original text, the patched sites and the blocks
// of a plan, and the plan's patch template (nil for the empty one).
// rewritten counts the template's trampolines that do not end as it
// emits them.
type exitChecker struct {
	text      []byte
	textAddr  uint64
	sites     map[uint64]uint64 // patched site -> its patch trampoline
	blocks    map[uint64]uint64 // block address -> the address it stands for
	tmpl      Template
	rewritten int
}

func newExitChecker(input []byte, p *plan.PatchPlan, tmpl Template) (*exitChecker, error) {
	f, err := elf64.Parse(input)
	if err != nil {
		return nil, err
	}
	off, _, size, err := f.TextRange()
	if err != nil {
		return nil, err
	}
	c := &exitChecker{text: input[off : off+size], textAddr: p.TextAddr, sites: map[uint64]uint64{},
		blocks: map[uint64]uint64{}, tmpl: tmpl}
	for _, s := range p.Sites {
		if s.Tactic == plan.TacticNames[0] {
			continue
		}
		for _, t := range s.Trampolines {
			switch {
			case t.Evictee:
			case t.For == s.Addr:
				c.sites[s.Addr] = t.Addr
			default:
				c.blocks[t.Addr] = t.For
			}
		}
	}
	return c, nil
}

// isBlock reports whether t, a record of site s, is an epilogue block.
func isBlock(s *plan.Site, t *plan.Trampoline) bool { return !t.Evictee && t.For != s.Addr }

// checkExits runs the exit check over every trampoline of p, made with
// tmpl (nil for the empty template). It returns how many of tmpl's
// trampolines an epilogue rewrote.
func checkExits(input []byte, p *plan.PatchPlan, tmpl Template) (int, error) {
	c, err := newExitChecker(input, p, tmpl)
	if err != nil {
		return 0, err
	}
	for i := range p.Sites {
		for j := range p.Sites[i].Trampolines {
			t := &p.Sites[i].Trampolines[j]
			var err error
			if isBlock(&p.Sites[i], t) {
				err = c.tail(t.Code, t.Addr, t.For)
			} else {
				err = c.trampoline(*t)
			}
			if err != nil {
				return 0, fmt.Errorf("trampoline at %#x for %#x: %w", t.Addr, t.For, err)
			}
		}
	}
	return c.rewritten, nil
}

// orig decodes the original instruction at addr.
func (c *exitChecker) orig(addr uint64) (x86.Inst, error) {
	o := int64(addr - c.textAddr)
	if o < 0 || o >= int64(len(c.text)) {
		return x86.Inst{}, fmt.Errorf("%#x is outside the text", addr)
	}
	return x86.Decode(c.text[o:], addr)
}

// transfer reports whether in does anything but fall through.
func transfer(in *x86.Inst) bool {
	return in.Attrs&(x86.AttrJump|x86.AttrCondJump|x86.AttrCall|x86.AttrRet|x86.AttrStop|x86.AttrInt3) != 0
}

func (c *exitChecker) trampoline(t plan.Trampoline) error {
	d, err := c.orig(t.For)
	if err != nil {
		return err
	}
	code, at := []byte(t.Code), t.Addr
	if c.tmpl != nil && !t.Evictee {
		return c.templated(code, at, &d)
	}
	if !transfer(&d) {
		n, err := same(code, at, &d)
		if err != nil {
			return fmt.Errorf("displaced instruction: %w", err)
		}
		return c.tail(code[n:], at+uint64(n), d.Addr+uint64(d.Len))
	}
	if err := c.emulation(code, at, &d); err != nil {
		return fmt.Errorf("displaced instruction: %w", err)
	}
	return nil
}

// templated checks code at address at, the trampoline of c.tmpl for d:
// the template's own code up to the emulation of d, which EmitDisplaced
// emits last, and then that emulation.
func (c *exitChecker) templated(code []byte, at uint64, d *x86.Inst) error {
	want, err := c.tmpl.AppendCode(nil, d, at)
	if err != nil {
		return err
	}
	n := len(want)
	switch {
	case d.RelSize != 0 && d.IsJcc():
		n -= 11
	case d.RelSize != 0 && d.IsJmp(), d.RelSize != 0 && d.IsCall(), !transfer(d):
		n -= 5
	default:
		if !bytes.Equal(code, want) {
			return fmt.Errorf("% x is not the template's % x", code, want)
		}
		return nil
	}
	if !bytes.HasPrefix(code, want[:n]) {
		return fmt.Errorf("% x does not start with the template's % x", code, want[:n])
	}
	if !bytes.Equal(code, want) {
		c.rewritten++
	}
	if !transfer(d) {
		return c.tail(code[n:], at+uint64(n), d.Addr+uint64(d.Len))
	}
	// The call's push is the template's too.
	if d.IsCall() {
		return c.tail(code[n:], at+uint64(n), d.Target())
	}
	return c.emulation(code[n:], at+uint64(n), d)
}

// reaches reports whether the rel32 branch in, in trampoline code,
// reaches the original code at o: o itself, o's patch trampoline, or a
// block for o in the page of the branch's last byte.
func (c *exitChecker) reaches(in *x86.Inst, o uint64) bool {
	t := in.Target()
	if tramp, ok := c.sites[o]; t == o || ok && t == tramp {
		return true
	}
	last := in.Addr + uint64(in.Len) - 1
	return c.blocks[t] == o && t&^0xFFF == last&^0xFFF
}

// branchTo checks for a rel32 branch with the given opcode bytes that
// reaches the original code at o, and returns its length.
func (c *exitChecker) branchTo(code []byte, at uint64, opcode0, opcode1 byte, o uint64) (int, error) {
	in, err := x86.Decode(code, at)
	if err != nil {
		return 0, err
	}
	if in.RelSize != 4 || in.Bytes[0] != opcode0 || opcode0 == 0x0F && in.Bytes[1] != opcode1 {
		return 0, fmt.Errorf("% x is not a rel32 branch % x", in.Bytes, []byte{opcode0, opcode1})
	}
	if !c.reaches(&in, o) {
		return 0, fmt.Errorf("branch reaches %#x, which does not stand for %#x", in.Target(), o)
	}
	return in.Len, nil
}

// tail checks code at address at against the original code from o.
func (c *exitChecker) tail(code []byte, at, o uint64) error {
	for {
		if tramp, ok := c.sites[o]; ok {
			n, err := jump(code, at, tramp, o)
			if err != nil {
				return fmt.Errorf("at patched site %#x: %w", o, err)
			}
			return padding(code[n:])
		}
		if n, err := c.branchTo(code, at, 0xE9, 0, o); err == nil {
			return padding(code[n:])
		}
		d, err := c.orig(o)
		if err != nil {
			return err
		}
		if transfer(&d) {
			if err := c.emulation(code, at, &d); err != nil {
				return fmt.Errorf("terminal at %#x: %w", o, err)
			}
			return nil
		}
		for a := o + 1; a < o+uint64(d.Len); a++ {
			if _, ok := c.sites[a]; ok {
				return fmt.Errorf("copy of %#x holds patched site %#x", o, a)
			}
		}
		n, err := same(code, at, &d)
		if err != nil {
			return fmt.Errorf("copy of %#x: %w", o, err)
		}
		code, at, o = code[n:], at+uint64(n), o+uint64(d.Len)
	}
}

// same checks that code at address at holds d relocated: the same bytes
// except a RIP-relative displacement, which reaches the same address.
func same(code []byte, at uint64, d *x86.Inst) (int, error) {
	in, err := x86.Decode(code, at)
	if err != nil {
		return 0, err
	}
	if in.Len != d.Len || in.RIPRel != d.RIPRel {
		return 0, fmt.Errorf("% x is not % x", in.Bytes, d.Bytes)
	}
	for i := range d.Bytes {
		if d.RIPRel && i >= d.DispOff && i < d.DispOff+4 {
			continue
		}
		if in.Bytes[i] != d.Bytes[i] {
			return 0, fmt.Errorf("% x is not % x", in.Bytes, d.Bytes)
		}
	}
	if d.RIPRel && in.Addr+uint64(in.Len)+uint64(in.Disp()) != d.Addr+uint64(d.Len)+uint64(d.Disp()) {
		return 0, fmt.Errorf("% x addresses another location than % x", in.Bytes, d.Bytes)
	}
	return in.Len, nil
}

// branch checks for a rel32 branch with the given opcode bytes to target.
func branch(code []byte, at uint64, opcode0, opcode1 byte, target uint64) (int, error) {
	in, err := x86.Decode(code, at)
	if err != nil {
		return 0, err
	}
	if in.RelSize != 4 || in.Bytes[0] != opcode0 || opcode0 == 0x0F && in.Bytes[1] != opcode1 {
		return 0, fmt.Errorf("% x is not a rel32 branch % x", in.Bytes, []byte{opcode0, opcode1})
	}
	if in.Target() != target {
		return 0, fmt.Errorf("branch reaches %#x, not %#x", in.Target(), target)
	}
	return in.Len, nil
}

// jump checks for a jmp rel32 to one of targets.
func jump(code []byte, at uint64, targets ...uint64) (int, error) {
	for _, t := range targets {
		if n, err := branch(code, at, 0xE9, 0, t); err == nil {
			return n, nil
		}
	}
	return 0, fmt.Errorf("no jump to %#x", targets)
}

// pushed checks for the push of the 64-bit value v: push imm32, and a
// store of the high half unless sign extension made it.
func pushed(code []byte, at, v uint64) (int, error) {
	in, err := x86.Decode(code, at)
	if err != nil {
		return 0, err
	}
	if in.TwoByte || in.Opcode != 0x68 {
		return 0, fmt.Errorf("% x is not push imm32", in.Bytes)
	}
	got, n := uint64(in.Imm()), in.Len
	if got != v {
		hi, err := x86.Decode(code[n:], at+uint64(n))
		if err != nil || hi.Opcode != 0xC7 || hi.MemBase != x86.RSP || hi.Disp() != 4 {
			return 0, fmt.Errorf("pushes %#x, not %#x", got, v)
		}
		got, n = got&0xFFFF_FFFF|uint64(hi.Imm())<<32, n+hi.Len
	}
	if got != v {
		return 0, fmt.Errorf("pushes %#x, not %#x", got, v)
	}
	return n, nil
}

// emulation checks code at address at, up to its end, for what the
// trampoline templates make of the control transfer d: a direct jmp or
// call continues with the code at its target, a jcc with its taken edge
// and then the code at its successor.
func (c *exitChecker) emulation(code []byte, at uint64, d *x86.Inst) error {
	resume := d.Addr + uint64(d.Len)
	n := 0
	switch {
	case d.IsJmp() && d.RelSize != 0:
		return c.tail(code, at, d.Target())
	case d.IsJcc() && d.RelSize != 0:
		n, err := c.branchTo(code, at, 0x0F, 0x80|d.Opcode&0x0F, d.Target())
		if err != nil {
			return err
		}
		return c.tail(code[n:], at+uint64(n), resume)
	case d.IsCall():
		p, err := pushed(code, at, resume)
		if err != nil {
			return err
		}
		if d.RelSize != 0 {
			return c.tail(code[p:], at+uint64(p), d.Target())
		}
		// The indirect call's operand, as a jmp (FF /2 becomes FF /4).
		asJmp := *d
		asJmp.Bytes = bytes.Clone(d.Bytes)
		mi := d.NPrefix + 1
		asJmp.Bytes[mi] = asJmp.Bytes[mi]&^(7<<3) | 4<<3
		m, err := same(code[p:], at+uint64(p), &asJmp)
		if err != nil {
			return err
		}
		n = p + m
	case d.IsJmp():
		m, err := same(code, at, d)
		if err != nil {
			return err
		}
		n = m
	default:
		if len(code) < d.Len || !bytes.Equal(code[:d.Len], d.Bytes) {
			return fmt.Errorf("% x is not % x", code[:min(len(code), d.Len)], d.Bytes)
		}
		n = d.Len
	}
	return padding(code[n:])
}

// padding checks that code is int3 filler.
func padding(code []byte) error {
	if bytes.Count(code, []byte{0xCC}) != len(code) {
		return fmt.Errorf("% x after the end of the trampoline's code", code)
	}
	return nil
}

// exitCase is one input and configuration the exit check runs on.
type exitCase struct {
	name  string
	input []byte
	cfg   Config
}

// exitCheckCases are the golden corpus under every tactic configuration;
// a superset-mode rewrite of a CET shared object (sparse heap writes, as
// the recover-cet benchmark class that once committed a branch 4 GiB off
// its target); and the five kernels with lowfat's check under A2 and a
// call trampoline under A1 and A2.
func exitCheckCases(t *testing.T) []exitCase {
	var cases []exitCase
	for _, be := range planCorpus(t) {
		for _, tc := range parallelCorpusConfigs {
			cfg := tc.cfg
			cfg.ReserveVA = append(cfg.ReserveVA, workload.ReserveVA()...)
			cases = append(cases, exitCase{be.name + "/" + tc.name, be.bin, cfg})
		}
	}
	p, err := workload.ProfileByName("libcrypto-cet.so")
	if err != nil {
		t.Fatal(err)
	}
	p.Name += "#1.4"
	prog, err := workload.BuildStatic(p, 125_000/(p.SizeMB*1e6))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, exitCase{"libcrypto-cet.so/superset", prog.ELF, Config{Select: SelectHeapWrites,
		Disasm: DisasmSuperset, ReserveVA: append(workload.ReserveVA(), [2]uint64{0x10000, PIEBase})}})

	const fnAddr = 0x3_0000_0000
	call := &trampoline.Call{Fn: fnAddr, Args: []trampoline.Arg{{Kind: trampoline.ArgAddr}}}
	callVA := append(workload.ReserveVA(), [2]uint64{fnAddr &^ 0xFFF, fnAddr + 0x1000})
	for _, arch := range []string{"branchy", "memstream", "matrix", "pointer", "callheavy"} {
		prog, err := workload.BuildKernel(arch, false)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			exitCase{arch + "/lowfat/A2", prog.ELF, Config{Select: SelectHeapWrites, Template: lowfat.CheckTemplate{},
				ReserveVA: append(workload.ReserveVA(), lowfat.ReserveVA()...)}},
			exitCase{arch + "/call/A1", prog.ELF, Config{Select: SelectJumps, Template: call, ReserveVA: callVA}},
			exitCase{arch + "/call/A2", prog.ELF, Config{Select: SelectHeapWrites, Template: call, ReserveVA: callVA}})
	}
	return cases
}

// TestTrampolineExits runs the exit check on every trampoline of every
// case's plan. A case with a template has an exit rewritten, so that a
// pass that skipped the template's trampolines shows.
func TestTrampolineExits(t *testing.T) {
	for _, c := range exitCheckCases(t) {
		p, err := Plan(c.input, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n, err := checkExits(c.input, p, c.cfg.Template)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if c.cfg.Template != nil && n == 0 {
			t.Errorf("%s: no exit of the template's trampolines rewritten", c.name)
		}
	}
}

// TestTrampolineExitsMutation: the exit check fails on a plan with one
// byte of a copied tail flipped, on one with a return jump sent one
// byte further, and on one with a taken edge sent to the block of
// another target in its page.
func TestTrampolineExitsMutation(t *testing.T) {
	prog, err := workload.BuildKernel("pointer", false) // one exit grown, one as emitted
	if err != nil {
		t.Fatal(err)
	}
	input := prog.ELF
	p, err := Plan(input, Config{Select: SelectHeapWrites, ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkExits(input, p, nil); err != nil {
		t.Fatal(err)
	}
	c, err := newExitChecker(input, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(pick func(tr *plan.Trampoline, d *x86.Inst) bool, edit func(code []byte, d *x86.Inst)) error {
		for i := range p.Sites {
			for j := range p.Sites[i].Trampolines {
				tr := &p.Sites[i].Trampolines[j]
				d, err := c.orig(tr.For)
				if err != nil || !pick(tr, &d) {
					continue
				}
				saved := tr.Code
				tr.Code = bytes.Clone(saved)
				edit(tr.Code, &d)
				_, err = checkExits(input, p, nil)
				tr.Code = saved
				return err
			}
		}
		t.Fatal("no trampoline to mutate")
		return nil
	}
	// A tail holding copies: longer than the displaced instruction and
	// its return jump.
	copied := func(tr *plan.Trampoline, d *x86.Inst) bool { return !transfer(d) && len(tr.Code) > d.Len+5 }
	if err := mutate(copied, func(code []byte, d *x86.Inst) { code[d.Len] ^= 0x01 }); err == nil {
		t.Error("a flipped tail byte passed the exit check")
	}
	returns := func(tr *plan.Trampoline, d *x86.Inst) bool {
		n := len(tr.Code)
		return !transfer(d) && n == d.Len+5 && tr.Code[n-5] == 0xE9
	}
	bump := func(code []byte, _ *x86.Inst) {
		rel := code[len(code)-4:]
		binary.LittleEndian.PutUint32(rel, binary.LittleEndian.Uint32(rel)+1)
	}
	if err := mutate(returns, bump); err == nil {
		t.Error("a retargeted return jump passed the exit check")
	}
	if err := mutate(copied, bump); err == nil {
		t.Error("a retargeted epilogue jump passed the exit check")
	}

	prog, err = workload.BuildKernel("branchy", false)
	if err != nil {
		t.Fatal(err)
	}
	input = prog.ELF
	if p, err = Plan(input, Config{Select: SelectJumps, ReserveVA: workload.ReserveVA()}); err != nil {
		t.Fatal(err)
	}
	if c, err = newExitChecker(input, p, nil); err != nil {
		t.Fatal(err)
	}
	if !crossBlocks(c, p) {
		t.Fatal("no taken edge into a block that shares its page with another")
	}
	if _, err := checkExits(input, p, nil); err == nil {
		t.Error("a taken edge sent to another target's block passed the exit check")
	}
}

// crossBlocks sends the first jcc of p that reaches a block to another
// block of the same page, one that stands for another address, and
// reports whether it found one.
func crossBlocks(c *exitChecker, p *plan.PatchPlan) bool {
	var blocks []uint64
	for i := range p.Sites {
		for j := range p.Sites[i].Trampolines {
			if t := &p.Sites[i].Trampolines[j]; isBlock(&p.Sites[i], t) {
				blocks = append(blocks, t.Addr)
			}
		}
	}
	for i := range p.Sites {
		for j := range p.Sites[i].Trampolines {
			tr := &p.Sites[i].Trampolines[j]
			for o := 0; o < len(tr.Code); {
				in, err := x86.Decode(tr.Code[o:], tr.Addr+uint64(o))
				if err != nil {
					break
				}
				end := in.Addr + uint64(in.Len)
				if x, ok := c.blocks[in.Target()]; ok && in.IsJcc() && in.RelSize == 4 {
					for _, b := range blocks {
						if c.blocks[b] != x && b&^0xFFF == in.Target()&^0xFFF {
							tr.Code = bytes.Clone(tr.Code)
							binary.LittleEndian.PutUint32(tr.Code[o+in.Len-4:], uint32(b-end))
							return true
						}
					}
				}
				o += in.Len
			}
		}
	}
	return false
}
