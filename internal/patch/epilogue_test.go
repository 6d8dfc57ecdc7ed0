package patch

import (
	"bytes"
	"testing"

	"e9patch/internal/emu"
	"e9patch/internal/x86"
)

// store emits a 7-byte heap store, long enough for B1.
func store(a *x86.Asm, disp int32) { a.MovMemReg64(x86.M(x86.RBX, disp), x86.RAX) }

// patchStores patches the stores among build's instructions and returns
// the rewriter and the instructions.
func patchStores(t *testing.T, build func(a *x86.Asm), before func(r *Rewriter)) (*Rewriter, []x86.Loc) {
	t.Helper()
	r, insts := newTestRewriter(t, build, Options{})
	if before != nil {
		before(r)
	}
	var sel []int
	for i := range insts {
		if insts[i].MayWriteMem() {
			sel = append(sel, i)
		}
	}
	if st := r.PatchAll(sel); st.Patched() != len(sel) {
		t.Fatalf("patched %d of %d", st.Patched(), len(sel))
	}
	return r, insts
}

// tail returns the code of the trampoline for addr after its displaced
// instruction.
func tail(t *testing.T, r *Rewriter, loc x86.Loc) []byte {
	t.Helper()
	tr := trampFor(t, r, loc.Addr, false)
	if !bytes.Equal(tr.Code[:loc.Len], loc.Bytes()) {
		t.Fatalf("trampoline for %#x does not start with its instruction", loc.Addr)
	}
	return tr.Code[loc.Len:]
}

func TestEpilogueRetargetsOntoNextSite(t *testing.T) {
	r, insts := patchStores(t, func(a *x86.Asm) {
		store(a, 0x100)
		store(a, 0x108)
		a.Ret()
	}, nil)
	in, err := x86.Decode(tail(t, r, insts[0]), 0)
	if err != nil || !in.IsJmp() || in.RelSize != 4 {
		t.Fatalf("the exit is not a jmp rel32 (%v)", err)
	}
	tr := trampFor(t, r, insts[0].Addr, false)
	at := tr.Addr + uint64(insts[0].Len)
	if got, want := at+5+uint64(in.Rel()), trampFor(t, r, insts[1].Addr, false).Addr; got != want {
		t.Errorf("exit goes to %#x, want the next site's trampoline %#x", got, want)
	}
}

// copiesToRet assembles a store followed by code a grown epilogue copies
// up to a ret.
func copiesToRet(a *x86.Asm) {
	store(a, 0x100)
	a.AddRegImm64(x86.RAX, 1)
	a.AddRegImm64(x86.RCX, 2)
	a.Ret()
}

func TestEpilogueGrowsToTerminal(t *testing.T) {
	r, insts := patchStores(t, copiesToRet, nil)
	var want []byte
	for _, l := range insts[1:] {
		want = append(want, l.Bytes()...)
	}
	if got := tail(t, r, insts[0]); !bytes.Equal(got, want) {
		t.Fatalf("epilogue % x, want the copies and the ret % x", got, want)
	}
	tr := trampFor(t, r, insts[0].Addr, false)
	if !r.space.Occupied(tr.Addr+uint64(len(tr.Code))-1, tr.Addr+uint64(len(tr.Code))) {
		t.Error("the grown bytes are not reserved")
	}
}

// TestEpilogueNeverGrowsIntoUsedOffsets: with every page offset taken by
// an injected image, the same trampoline cannot grow and keeps its
// return jump.
func TestEpilogueNeverGrowsIntoUsedOffsets(t *testing.T) {
	r, insts := patchStores(t, copiesToRet, func(r *Rewriter) { r.Injected(0x7000_0000, pageSize) })
	in, err := x86.Decode(tail(t, r, insts[0]), 0)
	if err != nil || !in.IsJmp() || len(tail(t, r, insts[0])) != jmpLen {
		t.Fatal("the trampoline changed although no offset was free")
	}
}

// TestEpilogueInPlace: a tail no longer than the jump it replaces is
// written over it, padded with int3, whatever the growth rules say.
func TestEpilogueInPlace(t *testing.T) {
	r, insts := patchStores(t, func(a *x86.Asm) {
		store(a, 0x100)
		a.PopReg(x86.RBP)
		a.Ret()
	}, func(r *Rewriter) { r.Injected(0x7000_0000, pageSize) })
	if got, want := tail(t, r, insts[0]), []byte{0x5D, 0xC3, 0xCC, 0xCC, 0xCC}; !bytes.Equal(got, want) {
		t.Errorf("epilogue % x, want % x", got, want)
	}
}

// TestEpilogueDropped: a syscall on the way, or no terminal within
// epilogueWalk bytes, leaves the return jump as it was.
func TestEpilogueDropped(t *testing.T) {
	for name, build := range map[string]func(a *x86.Asm){
		"syscall": func(a *x86.Asm) {
			store(a, 0x100)
			a.Raw(0x0F, 0x05)
			a.Ret()
		},
		"budget": func(a *x86.Asm) {
			store(a, 0x100)
			for i := 0; i < 10; i++ {
				a.AddRegImm64(x86.RAX, 1)
			}
			a.Ret()
		},
	} {
		r, insts := patchStores(t, build, nil)
		in, err := x86.Decode(tail(t, r, insts[0]), 0)
		if err != nil || !in.IsJmp() || len(tail(t, r, insts[0])) != jmpLen {
			t.Errorf("%s: the return jump was rewritten", name)
		}
	}
}

func TestOffsetSet(t *testing.T) {
	var s offsetSet
	s.add(3*pageSize-2, 4) // wraps from the end of a page to its start
	for o, want := range map[int]bool{pageSize - 3: false, pageSize - 2: true, pageSize - 1: true, 0: true, 1: true, 2: false} {
		if s.has(o) != want {
			t.Errorf("offset %#x marked %v, want %v", o, s.has(o), want)
		}
	}
	if s.full() {
		t.Error("four offsets make a full set")
	}
	s.add(0x5000_0123, 2*pageSize)
	if !s.full() {
		t.Error("a two-page image leaves an offset free")
	}
}

// emulate runs text at testTextAddr, with r's trampolines mapped when r
// is not nil, until its ret, and returns the machine and the number of
// times control went from trampoline code into the text.
func emulate(t *testing.T, text []byte, r *Rewriter) (*emu.Machine, int) {
	t.Helper()
	m := emu.NewMachine()
	m.Mem.WriteBytes(testTextAddr, text)
	if r != nil {
		for _, tr := range r.Trampolines() {
			m.Mem.WriteBytes(tr.Addr, tr.Code)
		}
	}
	m.SetupStack(0x7FFF_0000_0000, 0x10000)
	m.RIP = testTextAddr
	inText := func(a uint64) bool { return a-testTextAddr < uint64(len(text)) }
	entries, prev := 0, uint64(testTextAddr)
	m.Trace = func(in *x86.Inst) {
		if inText(in.Addr) && !inText(prev) {
			entries++
		}
		prev = in.Addr
	}
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return m, entries
}

// blockFor returns the epilogue block a branch in trampoline code sends
// to target x: the trampoline at its target, which stands for x.
func blockFor(t *testing.T, r *Rewriter, br x86.Inst, x uint64) *Trampoline {
	t.Helper()
	for i := range r.trampolines {
		if b := &r.trampolines[i]; b.Addr == br.Target() && b.ForAddr == x && !b.Evictee {
			if b.Addr&^(pageSize-1) != (br.Addr+uint64(br.Len)-1)&^(pageSize-1) {
				t.Errorf("the block for %#x is not in the page of its branch", x)
			}
			return b
		}
	}
	t.Fatalf("the branch at %#x goes to %#x, not to a block for %#x", br.Addr, br.Target(), x)
	return nil
}

// TestTakenEdgeEpilogue: a loop whose back edge is a patched jcc. The
// trampoline's taken edge goes to a block in its page that copies the
// loop body up to the jcc's own site, so the loop runs without coming
// back to the text.
func TestTakenEdgeEpilogue(t *testing.T) {
	var top *x86.Label
	r, insts := newTestRewriter(t, func(a *x86.Asm) {
		a.XorRegReg32(x86.RCX, x86.RCX)
		a.XorRegReg32(x86.RAX, x86.RAX)
		top = a.NewLabel()
		a.Bind(top)
		a.AddRegReg64(x86.RAX, x86.RCX)
		a.AddRegImm64(x86.RCX, 1)
		a.CmpRegImm64(x86.RCX, 100)
		a.Jcc(x86.CondL, top)
		a.Ret()
	}, Options{})
	jl := len(insts) - 2
	if st := r.PatchAll([]int{jl}); st.Patched() != 1 {
		t.Fatalf("patched %d", st.Patched())
	}
	tr := trampFor(t, r, insts[jl].Addr, false)
	br, err := x86.Decode(tr.Code, tr.Addr)
	if err != nil || !br.IsJcc() {
		t.Fatalf("the trampoline does not start with the jcc (%v)", err)
	}
	blockFor(t, r, br, insts[2].Addr)
	want, _ := emulate(t, r.orig, nil)
	got, entries := emulate(t, r.code, r)
	if got.Regs[x86.RAX] != want.Regs[x86.RAX] || want.Regs[x86.RAX] != 4950 {
		t.Errorf("rax %d, original %d", got.Regs[x86.RAX], want.Regs[x86.RAX])
	}
	if entries != 0 {
		t.Errorf("trampoline code went back to the text %d times", entries)
	}
}

// TestEpilogueLoopTerminates: a taken edge into a loop with no patched
// site. Its block ends in the loop's jcc, whose taken edge is an exit to
// the block's own address: the memo sends it to the block itself, and
// the pass ends.
func TestEpilogueLoopTerminates(t *testing.T) {
	var loop *x86.Label
	r, insts := newTestRewriter(t, func(a *x86.Asm) {
		a.XorRegReg32(x86.RCX, x86.RCX)
		a.XorRegReg32(x86.RAX, x86.RAX)
		a.TestRegReg64(x86.RCX, x86.RCX)
		loop = a.NewLabel()
		a.Jcc(x86.CondE, loop)
		a.AddRegImm64(x86.RAX, 1000)
		a.Bind(loop)
		a.AddRegImm64(x86.RAX, 2)
		a.AddRegImm64(x86.RCX, 1)
		a.CmpRegImm64(x86.RCX, 50)
		a.JccShort(x86.CondL, loop)
		a.Ret()
	}, Options{})
	if st := r.PatchAll([]int{3}); st.Patched() != 1 {
		t.Fatalf("patched %d", st.Patched())
	}
	tr := trampFor(t, r, insts[3].Addr, false)
	br, err := x86.Decode(tr.Code, tr.Addr)
	if err != nil || !br.IsJcc() {
		t.Fatalf("the trampoline does not start with the jcc (%v)", err)
	}
	b := blockFor(t, r, br, insts[5].Addr)
	back, err := x86.Decode(b.Code[len(b.Code)-jmpLen-jccLen:], b.Addr+uint64(len(b.Code)-jmpLen-jccLen))
	if err != nil || !back.IsJcc() || back.Target() != b.Addr {
		t.Errorf("the block's jcc does not branch to the block itself (%v)", err)
	}
	want, _ := emulate(t, r.orig, nil)
	got, entries := emulate(t, r.code, r)
	if got.Regs[x86.RAX] != want.Regs[x86.RAX] || want.Regs[x86.RAX] != 100 {
		t.Errorf("rax %d, original %d", got.Regs[x86.RAX], want.Regs[x86.RAX])
	}
	if entries != 0 {
		t.Errorf("trampoline code went back to the text %d times", entries)
	}
}
