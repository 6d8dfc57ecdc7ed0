package patch

import (
	"bytes"
	"reflect"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/trampoline"
	"e9patch/internal/va"
	"e9patch/internal/x86"
)

// countingTemplate is a third-party template (Size and Emit only, so it
// is emitted through Emit, never into the slab) that counts how often
// each instruction is sized.
type countingTemplate struct {
	trampoline.Empty
	sized map[uint64]int
}

func (c countingTemplate) Size(inst *x86.Inst) (int, error) {
	c.sized[inst.Addr]++
	return c.Empty.Size(inst)
}

// Emit hides Empty's AppendCode behind the two-method interface.
type emitOnly struct{ t trampoline.Template }

func (e emitOnly) Size(inst *x86.Inst) (int, error) { return e.t.Size(inst) }
func (e emitOnly) Emit(inst *x86.Inst, at uint64) ([]byte, error) {
	return e.t.Emit(inst, at)
}

// hostileRewriter patches every jump and heap write of the hostile
// program (B2, T1, T2, T3 and failures all occur) with the given
// templates.
func hostileRewriter(t *testing.T, opts Options) *Rewriter {
	t.Helper()
	a := x86.NewAsm(testTextAddr)
	buildHostile(a)
	code := a.MustFinish()
	res := disasm.Linear(code, testTextAddr)
	space := va.NewDefault()
	loadEnd := (testTextAddr+uint64(len(code))+0xFFF)&^0xFFF + 0x2000
	if err := space.Reserve(0x400000, loadEnd); err != nil {
		t.Fatal(err)
	}
	r := New(code, testTextAddr, res.Insts, space, loadEnd, opts)
	r.PatchAll(append(disasm.SelectJumps(res.Insts), disasm.SelectHeapWrites(res.Insts)...))
	return r
}

// TestTemplateSizedOncePerSite: across the whole B2 → T1 → T2 → T3
// escalation the patch template is asked for its size at most once per
// site, however many pads, candidates and victims are tried, and the
// answer is the same rewrite the slab route produces.
func TestTemplateSizedOncePerSite(t *testing.T) {
	patchT := countingTemplate{sized: map[uint64]int{}}
	r := hostileRewriter(t, Options{Template: emitOnly{patchT}})
	st := r.Stats()
	if st.ByTactic[TacticT1] == 0 || st.ByTactic[TacticT2] == 0 || st.ByTactic[TacticT3] == 0 {
		t.Fatalf("the escalation was not exercised: %+v", st)
	}
	for _, loc := range r.Results() {
		n := patchT.sized[loc.Addr]
		if n > 1 || (n == 0 && loc.Tactic != TacticNone) {
			t.Errorf("site %#x (%v): Size called %d times, want once", loc.Addr, loc.Tactic, n)
		}
	}
	if len(patchT.sized) > st.Total {
		t.Errorf("Size asked about %d instructions, %d sites", len(patchT.sized), st.Total)
	}
	// Its trampolines are what Emit returned: no epilogue rewrites an
	// exit the patcher does not know.
	var in x86.Inst
	for _, tr := range r.Trampolines() {
		if tr.Evictee {
			continue
		}
		if err := x86.DecodeInto(&in, r.orig[r.off(tr.ForAddr):], tr.ForAddr); err != nil {
			t.Fatal(err)
		}
		if want, err := patchT.Emit(&in, tr.Addr); err != nil || !bytes.Equal(tr.Code, want) {
			t.Errorf("trampoline for %#x is not as emitted (err %v)", tr.ForAddr, err)
		}
	}

	// The built-in route — measured and assembled in the slab — makes
	// the same decisions, undone T2/T3 attempts and all, and the same
	// trampolines up to their return jumps, which only it rewrites.
	slab := hostileRewriter(t, Options{})
	if slab.slab == nil {
		t.Fatal("the built-in template did not use the slab")
	}
	if !bytes.Equal(r.Code(), slab.Code()) || !reflect.DeepEqual(r.Results(), slab.Results()) ||
		!reflect.DeepEqual(r.locks, slab.locks) || !reflect.DeepEqual(r.SigTab(), slab.SigTab()) {
		t.Error("slab vs Emit: different decisions")
	}
	trs, strs := r.Trampolines(), slab.Trampolines()
	if len(trs) != len(strs) {
		t.Fatalf("slab vs Emit: %d vs %d trampolines", len(trs), len(strs))
	}
	for i, tr := range trs {
		s := strs[i]
		head := tr.Code[:max(len(tr.Code)-jmpLen, 0)]
		if tr.Addr != s.Addr || tr.ForAddr != s.ForAddr || tr.Evictee != s.Evictee || !bytes.HasPrefix(s.Code, head) {
			t.Errorf("slab vs Emit: trampoline %d differs", i)
		}
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

	ar := &arena{base: 0xA00000, end: 0xB00000, ptr: 0xA00000}
	r.arena = ar
	code, ok := r.emit(r.patchT, &in, ar.ptr, size)
	if !ok {
		t.Fatal("emit failed")
	}
	ar.ptr += uint64(size)
	r.undoTrampoline(0xA00000, code, true)
	if ar.ptr != 0xA00000 || len(r.slab) != size {
		t.Fatalf("after undo: arena ptr %#x, slab holds %d bytes, want %#x and %d", ar.ptr, len(r.slab), 0xA00000, size)
	}
	again, _ := r.emit(r.patchT, &in, 0xA00000, size)
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
	r.undoTrampoline(0x900000, kept, false)
	if len(r.slab) != 2*size || r.space.Occupied(0x900000, 0x900000+uint64(size)) {
		t.Errorf("undo of an inner trampoline: slab holds %d bytes, want %d", len(r.slab), 2*size)
	}
}
