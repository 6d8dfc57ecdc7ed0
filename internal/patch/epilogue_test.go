package patch

import (
	"bytes"
	"testing"

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
