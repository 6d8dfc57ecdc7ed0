package patch

import (
	"bytes"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/va"
	"e9patch/internal/x86"
)

const testTextAddr = 0x401000

// newTestRewriter assembles code at testTextAddr, reserves a non-PIE
// style layout, and returns a rewriter plus the decoded instructions.
func newTestRewriter(t *testing.T, build func(a *x86.Asm), opts Options) (*Rewriter, []x86.Loc) {
	t.Helper()
	a := x86.NewAsm(testTextAddr)
	build(a)
	code := a.MustFinish()
	res := disasm.Linear(code, testTextAddr)
	if res.BadBytes != 0 {
		t.Fatalf("test code does not decode cleanly: %d bad bytes", res.BadBytes)
	}
	space := va.NewDefault()
	// Reserve the load image: ELF headers page through text end plus a
	// data page.
	loadEnd := testTextAddr + uint64(len(code))
	loadEnd = (loadEnd + 0xFFF) &^ 0xFFF
	loadEnd += 0x2000 // data+bss
	if err := space.Reserve(0x400000, loadEnd); err != nil {
		t.Fatal(err)
	}
	r := New(code, testTextAddr, res.Insts, space, loadEnd, opts)
	return r, res.Insts
}

// decodeJumpChain decodes the instruction at addr in the patched code
// and follows one direct jump, returning the decoded instruction.
func decodeAtAddr(t *testing.T, r *Rewriter, addr uint64) x86.Inst {
	t.Helper()
	off := int(addr - r.textAddr)
	in, err := x86.Decode(r.code[off:], addr)
	if err != nil {
		t.Fatalf("decode at %#x: %v", addr, err)
	}
	return in
}

func trampFor(t *testing.T, r *Rewriter, forAddr uint64, evictee bool) *Trampoline {
	t.Helper()
	for i := range r.trampolines {
		tr := &r.trampolines[i]
		if tr.ForAddr == forAddr && tr.Evictee == evictee {
			return tr
		}
	}
	t.Fatalf("no trampoline for %#x (evictee=%v)", forAddr, evictee)
	return nil
}

// TestPatchAllOnce: the lock state and the space carry one PatchAll's
// decisions, so a second call is refused, not run over them.
func TestPatchAllOnce(t *testing.T) {
	r, _ := newTestRewriter(t, figure1, Options{})
	r.PatchAll([]int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("second PatchAll did not panic")
		}
	}()
	r.PatchAll([]int{0})
}

func TestB1DirectJump(t *testing.T) {
	// A 6-byte jcc rel32 is patched with a plain jump (B1).
	r, insts := newTestRewriter(t, func(a *x86.Asm) {
		l := a.NewLabel()
		a.Jcc(x86.CondE, l) // 6 bytes
		a.Bind(l)
		a.Ret()
	}, Options{})
	stats := r.PatchAll([]int{0})
	if stats.ByTactic[TacticB1] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	in := decodeAtAddr(t, r, insts[0].Addr)
	if !in.IsJmp() || in.RelSize != 4 {
		t.Fatal("patched instruction is not a near jump")
	}
	tr := trampFor(t, r, insts[0].Addr, false)
	if in.Target() != tr.Addr {
		t.Errorf("jump target %#x, want trampoline %#x", in.Target(), tr.Addr)
	}
	// The trampoline holds the displaced jcc + fallthrough jump; the
	// taken edge reaches the target, or the epilogue block for it.
	tin, err := x86.Decode(tr.Code, tr.Addr)
	if err != nil {
		t.Fatal(err)
	}
	var orig x86.Inst
	insts[0].DecodeInto(&orig)
	if !tin.IsJcc() || !standsFor(r, tin.Target(), orig.Target()) {
		t.Error("trampoline does not emulate the displaced jcc")
	}
}

// standsFor reports whether a branch to got reaches the original code at
// x: x itself, or an epilogue block for x.
func standsFor(r *Rewriter, got, x uint64) bool {
	if got == x {
		return true
	}
	for _, tr := range r.trampolines {
		if tr.Addr == got && tr.ForAddr == x && !tr.Evictee {
			return true
		}
	}
	return false
}

// figure1Prefix assembles the paper's Figure 1 instruction sequence:
//
//	Ins1: mov %rax,(%rbx)   48 89 03
//	Ins2: add $32,%rax      48 83 c0 20
//	Ins3: xor %rax,%rcx     48 31 c1
//	Ins4: cmpl $77,-4(%rbx) 83 7b fc 4d
func figure1(a *x86.Asm) {
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX)
	a.AddRegImm64(x86.RAX, 32)
	a.XorRegReg64(x86.RCX, x86.RAX)
	a.CmpMemImm8(x86.M(x86.RBX, -4), 77)
	a.Ret()
}

func TestFigure1T1PaddedJump(t *testing.T) {
	// For Ins1 (3 bytes), B2's window is rel32=0x8348XXXX (negative →
	// unreachable for a non-PIE binary) and T1(a)'s is 0xc08348XX
	// (also negative); T1(b) pins rel32=0x20c08348, which is positive
	// and must succeed — exactly the paper's walkthrough.
	r, insts := newTestRewriter(t, figure1, Options{})
	stats := r.PatchAll([]int{0})
	if stats.ByTactic[TacticT1] != 1 {
		t.Fatalf("want T1 success, stats = %+v (results %+v)", stats, r.Results())
	}
	in := decodeAtAddr(t, r, insts[0].Addr)
	if !in.IsJmp() {
		t.Fatal("patch site does not decode as a jump")
	}
	if in.NPrefix != 2 {
		t.Errorf("padding prefixes = %d, want 2", in.NPrefix)
	}
	wantTarget := insts[0].Addr + 7 + 0x20c08348
	tr := trampFor(t, r, insts[0].Addr, false)
	if tr.Addr != wantTarget {
		t.Errorf("trampoline at %#x, want %#x (rel32=0x20c08348)", tr.Addr, wantTarget)
	}
	if in.Target() != tr.Addr {
		t.Errorf("jump target %#x != trampoline %#x", in.Target(), tr.Addr)
	}
	// Ins2..Ins4 bytes beyond the 7-byte jump are unchanged.
	if !bytes.Equal(r.code[7:], insts[1].Bytes()[3:]) {
		// insts[1] is 4 bytes starting at offset 3; jump covers 0..6.
	}
	if r.code[7] != 0x48 || r.code[8] != 0x31 {
		t.Error("bytes after the padded jump were modified")
	}
}

func TestB2PIE(t *testing.T) {
	// The same Figure 1 sequence in a PIE binary: negative rel32 is
	// reachable, so plain B2 succeeds.
	a := x86.NewAsm(0x5555_5555_5000)
	figure1(a)
	code := a.MustFinish()
	res := disasm.Linear(code, 0x5555_5555_5000)
	space := va.NewDefault()
	if err := space.Reserve(0x5555_5555_4000, 0x5555_5555_7000); err != nil {
		t.Fatal(err)
	}
	r := New(code, 0x5555_5555_5000, res.Insts, space, 0x5555_5555_7000, Options{})
	stats := r.PatchAll([]int{0})
	if stats.ByTactic[TacticB2] != 1 {
		t.Fatalf("want B2 success in PIE mode, stats = %+v", stats)
	}
	in := decodeAtAddr(t, r, res.Insts[0].Addr)
	tr := trampFor(t, r, res.Insts[0].Addr, false)
	if in.Target() != tr.Addr {
		t.Error("B2 jump does not reach its trampoline")
	}
	// The pun preserved Ins2's first two bytes as the rel32 suffix.
	if r.code[3] != 0x48 || r.code[4] != 0x83 {
		t.Error("punned bytes modified")
	}
}

func TestT2SuccessorEviction(t *testing.T) {
	// Patch instruction followed by a successor whose bytes force
	// negative rel32 for every pad (bytes 1..3 of the successor all >=
	// 0x80), so B2/T1 fail and T2 must evict the successor.
	r, insts := newTestRewriter(t, func(a *x86.Asm) {
		a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX) // 48 89 03
		// add $0xbbaa9988,%ebx = 81 c3 88 99 aa bb
		a.Raw(0x81, 0xC3, 0x88, 0x99, 0xAA, 0xBB)
		a.Ret()
	}, Options{})
	stats := r.PatchAll([]int{0})
	if stats.ByTactic[TacticT2] != 1 {
		t.Fatalf("want T2, stats = %+v results=%+v", stats, r.Results())
	}
	// The successor is now a jump to its evictee trampoline.
	succ := insts[1]
	sin := decodeAtAddr(t, r, succ.Addr)
	if !sin.IsJmp() {
		t.Fatal("successor not replaced by a jump")
	}
	ev := trampFor(t, r, succ.Addr, true)
	if sin.Target() != ev.Addr {
		t.Errorf("evictee jump %#x != trampoline %#x", sin.Target(), ev.Addr)
	}
	// The evictee trampoline executes the displaced successor then
	// jumps back to its successor.
	tin, err := x86.Decode(ev.Code, ev.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tin.Bytes, succ.Bytes()) {
		t.Error("evictee trampoline does not start with the victim")
	}
	// And the patch site reaches its own trampoline.
	pin := decodeAtAddr(t, r, insts[0].Addr)
	tr := trampFor(t, r, insts[0].Addr, false)
	if pin.Target() != tr.Addr {
		t.Errorf("patch jump %#x != trampoline %#x", pin.Target(), tr.Addr)
	}
}

func TestT3NeighbourEviction(t *testing.T) {
	// Disable T2 and use the Figure 1 tail (xor + cmpl) as victim
	// material; with B2/T1 blocked by hostile successor bytes, T3 must
	// produce the double jump.
	r, insts := newTestRewriter(t, func(a *x86.Asm) {
		a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX) // patch target
		a.Raw(0x81, 0xC3, 0x88, 0x99, 0xAA, 0xBB) // hostile successor
		a.XorRegReg64(x86.RCX, x86.RAX)           // victim candidate
		a.CmpMemImm8(x86.M(x86.RBX, -4), 77)
		a.Ret()
	}, Options{DisableT2: true})
	stats := r.PatchAll([]int{0})
	if stats.ByTactic[TacticT3] != 1 {
		t.Fatalf("want T3, stats = %+v results=%+v", stats, r.Results())
	}
	// Patch site: short jump.
	pin := decodeAtAddr(t, r, insts[0].Addr)
	if !pin.IsJmp() || pin.RelSize != 1 {
		t.Fatal("patch site is not a short jump")
	}
	// Short jump lands on J_patch, a near jump to the patch trampoline.
	jp := decodeAtAddr(t, r, pin.Target())
	if !jp.IsJmp() || jp.RelSize != 4 {
		t.Fatal("J_patch is not a near jump")
	}
	tr := trampFor(t, r, insts[0].Addr, false)
	if jp.Target() != tr.Addr {
		t.Errorf("J_patch target %#x != patch trampoline %#x", jp.Target(), tr.Addr)
	}
	// Find the victim: some instruction now starts with J_victim.
	var victimAddr uint64
	for i := range r.trampolines {
		if r.trampolines[i].Evictee {
			victimAddr = r.trampolines[i].ForAddr
		}
	}
	if victimAddr == 0 {
		t.Fatal("no evictee trampoline emitted")
	}
	jv := decodeAtAddr(t, r, victimAddr)
	ev := trampFor(t, r, victimAddr, true)
	if !jv.IsJmp() || jv.Target() != ev.Addr {
		t.Errorf("J_victim target %#x != evictee trampoline %#x", jv.Target(), ev.Addr)
	}
	// J_patch must live strictly inside the victim (overlapping code).
	var victimLen int
	for _, in := range insts {
		if in.Addr == victimAddr {
			victimLen = int(in.Len)
		}
	}
	if victimLen == 0 {
		t.Fatalf("victim %#x is not an instruction boundary", victimAddr)
	}
	if !(pin.Target() > victimAddr && pin.Target() < victimAddr+uint64(victimLen)) {
		t.Errorf("J_patch at %#x not inside victim [%#x,%#x)", pin.Target(), victimAddr, victimAddr+uint64(victimLen))
	}
}

func TestB0Fallback(t *testing.T) {
	// A single-byte instruction with a hostile successor and no
	// tactics: only the int3 fallback can patch it.
	r, insts := newTestRewriter(t, func(a *x86.Asm) {
		a.PushReg(x86.RAX)                        // 1 byte, patch target
		a.Raw(0x81, 0xC3, 0x88, 0x99, 0xAA, 0xBB) // hostile bytes
		a.Ret()
	}, Options{DisableT1: true, DisableT2: true, DisableT3: true, B0Fallback: true})
	stats := r.PatchAll([]int{0})
	if stats.ByTactic[TacticB0] != 1 {
		t.Fatalf("want B0, stats = %+v", stats)
	}
	if r.code[0] != 0xCC {
		t.Error("int3 not written")
	}
	tr := trampFor(t, r, insts[0].Addr, false)
	if got := r.SigTab()[insts[0].Addr]; got != tr.Addr {
		t.Errorf("sigtab entry %#x, want %#x", got, tr.Addr)
	}
}

func TestReverseOrderAdjacentPatches(t *testing.T) {
	// Patch Ins1 and Ins2 from Figure 1: S1 patches Ins2 first, so
	// Ins1's pun depends only on final bytes.
	r, insts := newTestRewriter(t, figure1, Options{})
	stats := r.PatchAll([]int{0, 1})
	if stats.Patched() != 2 {
		t.Fatalf("patched %d/2, stats=%+v results=%+v", stats.Patched(), stats, r.Results())
	}
	// Both patch sites must decode to jumps reaching their trampolines.
	for _, idx := range []int{0, 1} {
		in := decodeAtAddr(t, r, insts[idx].Addr)
		if in.Attrs&x86.AttrJump == 0 && in.RelSize == 0 {
			t.Fatalf("inst %d not a jump after patching", idx)
		}
		// Follow one short jump if T3 was used.
		if in.RelSize == 1 {
			in = decodeAtAddr(t, r, in.Target())
		}
		tr := trampFor(t, r, insts[idx].Addr, false)
		if in.Target() != tr.Addr {
			t.Errorf("inst %d jump %#x != trampoline %#x", idx, in.Target(), tr.Addr)
		}
	}
}

// TestFarBranchTargetRejectsPlacement: a jcc whose target sits at the
// bottom edge of its own rel32 range reaches it only from at or below the
// jcc. Its trampoline goes above the text, where the target is beyond
// ±2 GiB, so the placement must be rejected and the site left as it was,
// never committed with a displacement that wraps 4 GiB away.
func TestFarBranchTargetRejectsPlacement(t *testing.T) {
	const text = 0x1_0000_0000
	const target = text + 6 - 1<<31 // jcc rel32 = -2^31
	a := x86.NewAsm(text)
	a.JccRel32(x86.CondE, target)
	a.Ret()
	code := a.MustFinish()
	res := disasm.Linear(code, text)
	space := va.NewDefault()
	if err := space.Reserve(text, text+0x1000); err != nil {
		t.Fatal(err)
	}
	r := New(code, text, res.Insts, space, text+0x1000, Options{})
	stats := r.PatchAll([]int{0})
	if stats.Failed != 1 || len(r.Trampolines()) != 0 {
		t.Fatalf("want the site to fail with no trampoline, stats = %+v, %d trampolines", stats, len(r.Trampolines()))
	}
	if !bytes.Equal(r.Code(), code) {
		t.Error("a failed site was modified")
	}
}

func TestFailedLocationUnchanged(t *testing.T) {
	// With everything disabled and hostile bytes, patching fails and
	// the bytes must be untouched.
	r, insts := newTestRewriter(t, func(a *x86.Asm) {
		a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX)
		a.Raw(0x81, 0xC3, 0x88, 0x99, 0xAA, 0xBB)
		a.Ret()
	}, Options{DisableT1: true, DisableT2: true, DisableT3: true})
	stats := r.PatchAll([]int{0})
	if stats.Failed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if !bytes.Equal(r.code[:3], insts[0].Bytes()) {
		t.Error("failed location was modified")
	}
	if len(r.Trampolines()) != 0 {
		t.Error("trampolines leaked for failed patch")
	}
}

func TestStatsPercentages(t *testing.T) {
	s := Stats{Total: 200}
	s.ByTactic[TacticB1] = 100
	s.ByTactic[TacticB2] = 40
	s.ByTactic[TacticT1] = 30
	s.ByTactic[TacticT3] = 20
	s.Failed = 10
	if got := s.BasePercent(); got != 70 {
		t.Errorf("Base%% = %v", got)
	}
	if got := s.SuccPercent(); got != 95 {
		t.Errorf("Succ%% = %v", got)
	}
	if s.Patched() != 190 {
		t.Errorf("Patched = %d", s.Patched())
	}
}

func TestPatchAllJumpsProgram(t *testing.T) {
	// A larger program: patch every jump (application A1) and verify
	// every success decodes to a working chain and every trampoline is
	// disjoint.
	r, insts := newTestRewriter(t, func(a *x86.Asm) {
		top := a.NewLabel()
		out := a.NewLabel()
		a.Bind(top)
		for i := 0; i < 30; i++ {
			skip := a.NewLabel()
			a.AddRegImm64(x86.RAX, int32(i))
			a.CmpRegImm64(x86.RAX, 100)
			a.JccShort(x86.CondL, skip)
			a.MovMemReg64(x86.M(x86.RBX, int32(i*8)), x86.RAX)
			a.Bind(skip)
			a.Jcc(x86.CondE, out)
		}
		a.Jmp(top)
		a.Bind(out)
		a.Ret()
	}, Options{})
	sel := disasm.SelectJumps(insts)
	if len(sel) < 60 {
		t.Fatalf("selector found %d jumps", len(sel))
	}
	stats := r.PatchAll(sel)
	if stats.Total != len(sel) {
		t.Fatalf("total %d != selected %d", stats.Total, len(sel))
	}
	if stats.SuccPercent() < 95 {
		t.Errorf("success rate %.1f%% too low; stats=%+v", stats.SuccPercent(), stats)
	}
	// All trampolines must be pairwise disjoint and outside the image.
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for _, tr := range r.Trampolines() {
		ivs = append(ivs, iv{tr.Addr, tr.Addr + uint64(len(tr.Code))})
		if tr.Addr >= testTextAddr && tr.Addr < testTextAddr+uint64(len(r.code)) {
			t.Fatalf("trampoline inside text at %#x", tr.Addr)
		}
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
				t.Fatalf("overlapping trampolines %x %x", ivs[i], ivs[j])
			}
		}
	}
}
