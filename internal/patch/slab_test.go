package patch

import (
	"bytes"
	"encoding/binary"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/trampoline"
	"e9patch/internal/va"
	"e9patch/internal/x86"
)

// hostileRewriter patches every jump and heap write of the hostile
// program (B2, T1, T2, T3 and failures all occur) with the given
// templates.
func hostileRewriter(t *testing.T, opts Options) *Rewriter {
	t.Helper()
	a := x86.NewAsm(testTextAddr)
	buildHostile(a)
	code := a.MustFinish()
	res, _ := disasm.Recover(disasm.ModeLinear, code, testTextAddr)
	space := va.NewDefault()
	loadEnd := (testTextAddr+uint64(len(code))+0xFFF)&^0xFFF + 0x2000
	if err := space.Reserve(0x400000, loadEnd); err != nil {
		t.Fatal(err)
	}
	r := New(code, testTextAddr, res.Insts, space, loadEnd, opts)
	r.PatchAll(append(selectExpr(t, "branch", res.Insts), selectExpr(t, "heapwrite", res.Insts)...))
	return r
}

// TestTemplateSizedOncePerSite: across the whole B2 → T1 → T2 → T3
// escalation the patch template is asked for its size (its code at the
// instruction's own address) at most once per site, however many pads,
// candidates and victims are tried. The template is a Raw that emits
// what Empty does: its trampolines end in a jmp to the resume address,
// which no epilogue may touch, since only the caller knows a Raw body.
func TestTemplateSizedOncePerSite(t *testing.T) {
	sized := map[uint64]int{}
	raw := trampoline.Raw{Code: func(a *x86.Asm, inst *x86.Inst, _ uint64) error {
		if a.Addr() == inst.Addr {
			sized[inst.Addr]++
		}
		return trampoline.EmitDisplaced(a, inst)
	}}
	r := hostileRewriter(t, Options{Template: raw})
	st := r.Stats()
	if st.ByTactic[TacticT1] == 0 || st.ByTactic[TacticT2] == 0 || st.ByTactic[TacticT3] == 0 {
		t.Fatalf("the escalation was not exercised: %+v", st)
	}
	for _, loc := range r.Results() {
		n := sized[loc.Addr]
		if n > 1 || (n == 0 && loc.Tactic != TacticNone) {
			t.Errorf("site %#x (%v): sized %d times, want once", loc.Addr, loc.Tactic, n)
		}
	}
	if len(sized) > st.Total {
		t.Errorf("sized %d instructions, %d sites", len(sized), st.Total)
	}
	// Its trampolines are as emitted, among them some that end in a jmp
	// to the resume address. (The others are evictees and the epilogue
	// blocks of their exits.)
	patched := map[uint64]bool{}
	for _, loc := range r.Results() {
		patched[loc.Addr] = loc.Tactic != TacticNone
	}
	var in x86.Inst
	resumes := 0
	for _, tr := range r.Trampolines() {
		if tr.Evictee || !patched[tr.ForAddr] {
			continue
		}
		if err := x86.DecodeInto(&in, r.orig[r.off(tr.ForAddr):], tr.ForAddr); err != nil {
			t.Fatal(err)
		}
		if want, err := raw.AppendCode(nil, &in, tr.Addr); err != nil || !bytes.Equal(tr.Code, want) {
			t.Errorf("trampoline for %#x is not as emitted (err %v)", tr.ForAddr, err)
		}
		c := tr.Code
		if in.Attrs&transfers == 0 && tr.Addr+uint64(len(c))+uint64(int32(binary.LittleEndian.Uint32(c[len(c)-4:]))) == in.Addr+uint64(in.Len) {
			resumes++
		}
	}
	if resumes == 0 {
		t.Error("no trampoline ends in a jmp to its resume address")
	}
}

// TestTrampolineCodeIsClipped: every Code slice is clipped to its
// length, so a consumer that appends to one copies it instead of
// writing into the next trampoline of the slab.
func TestTrampolineCodeIsClipped(t *testing.T) {
	r := hostileRewriter(t, Options{})
	trs := r.Trampolines()
	if len(trs) < 2 {
		t.Fatal("need several trampolines")
	}
	before := make([][]byte, len(trs))
	for i, tr := range trs {
		before[i] = bytes.Clone(tr.Code)
		if cap(tr.Code) != len(tr.Code) {
			t.Fatalf("trampoline %d: cap %d > len %d", i, cap(tr.Code), len(tr.Code))
		}
	}
	for _, tr := range trs {
		_ = append(tr.Code, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC)
	}
	for i, tr := range trs {
		if !bytes.Equal(tr.Code, before[i]) {
			t.Errorf("trampoline %d changed when a neighbour was appended to", i)
		}
	}
}

// TestUndoAfterSlabEmission: backing out the trampoline emitted last
// gives its slab bytes back, leaves committed code alone, and the next
// emission reuses them.
func TestUndoAfterSlabEmission(t *testing.T) {
	r, insts := newTestRewriter(t, figure1, Options{})
	var in x86.Inst
	insts[0].DecodeInto(&in)
	size, ok := r.sizeOf(r.patchT, &in)
	if !ok || len(r.slab) != 0 {
		t.Fatalf("sizeOf = %d, %v; slab holds %d bytes after a measurement", size, ok, len(r.slab))
	}
	kept, ok := r.emit(r.patchT, &in, 0x900000, size)
	if !ok {
		t.Fatal("emit failed")
	}
	want := bytes.Clone(kept)

	const at = 0xA00000
	code, ok := r.emit(r.patchT, &in, at, size)
	if !ok {
		t.Fatal("emit failed")
	}
	if err := r.space.Reserve(at, at+uint64(size)); err != nil {
		t.Fatal(err)
	}
	r.undoTrampoline(at, code)
	if len(r.slab) != size || r.space.Occupied(at, at+uint64(size)) {
		t.Fatalf("after undo: slab holds %d bytes, want %d, and the range must be free", len(r.slab), size)
	}
	again, _ := r.emit(r.patchT, &in, at, size)
	if &again[0] != &code[0] {
		t.Error("the undone bytes were not reused")
	}
	if !bytes.Equal(kept, want) {
		t.Error("undo or re-emission changed committed code")
	}
	// Undoing a trampoline that is no longer the last emitted releases
	// its address range and leaves the slab alone.
	if err := r.space.Reserve(0x900000, 0x900000+uint64(size)); err != nil {
		t.Fatal(err)
	}
	r.undoTrampoline(0x900000, kept)
	if len(r.slab) != 2*size || r.space.Occupied(0x900000, 0x900000+uint64(size)) {
		t.Errorf("undo of an inner trampoline: slab holds %d bytes, want %d", len(r.slab), 2*size)
	}
}
