package patch

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/trampoline"
	"e9patch/internal/va"
	"e9patch/internal/x86"
)

// fatTemplate emits size deterministic filler bytes; big trampolines
// make independently chosen placements collide, which is exactly what
// the conflict tests need.
func fatTemplate(size int) trampoline.Raw {
	return trampoline.Raw{Code: func(a *x86.Asm, _ *x86.Inst, _ uint64) error {
		at := a.Addr()
		for i := 0; i < size; i++ {
			a.Raw(byte(at + uint64(i)))
		}
		return nil
	}}
}

// clusteredProgram assembles nblocks jump-heavy blocks separated by
// NOP sleds wider than the guard band, producing a multi-cluster
// workload.
func clusteredProgram(nblocks, sled int) func(a *x86.Asm) {
	return func(a *x86.Asm) {
		for b := 0; b < nblocks; b++ {
			out := a.NewLabel()
			for i := 0; i < 3; i++ {
				skip := a.NewLabel()
				a.AddRegImm64(x86.RAX, int32(b*8+i))
				a.Jcc(x86.CondE, skip)
				a.MovMemReg64(x86.M(x86.RBX, int32(i*8)), x86.RAX)
				a.Bind(skip)
				a.Jcc(x86.CondL, out)
			}
			a.Bind(out)
			for i := 0; i < sled; i++ {
				a.Nop()
			}
		}
		a.Ret()
	}
}

// descending returns sel sorted by address high-to-low, the order
// decompose expects.
func descending(insts []x86.Loc, sel []int) []int {
	order := append([]int(nil), sel...)
	sort.Slice(order, func(a, b int) bool {
		return insts[order[a]].Addr > insts[order[b]].Addr
	})
	return order
}

func TestDecomposeGuardBandClusters(t *testing.T) {
	opts := Options{MinRegionSize: 1}
	r, insts := newTestRewriter(t, clusteredProgram(5, 300), opts)
	sel := disasm.SelectJumps(insts)
	if len(sel) < 20 {
		t.Fatalf("only %d jumps selected", len(sel))
	}
	order := descending(insts, sel)
	regions := r.decompose(order)
	if len(regions) < 2 {
		t.Fatalf("expected a multi-region decomposition, got %d region(s)", len(regions))
	}
	// Concatenating the regions must reproduce the order exactly.
	var flat []int
	for _, reg := range regions {
		flat = append(flat, reg...)
	}
	if !reflect.DeepEqual(flat, order) {
		t.Fatal("regions do not concatenate to the patch order")
	}
	// Adjacent regions must be separated by at least the guard band.
	for i := 1; i < len(regions); i++ {
		loPrev := insts[regions[i-1][len(regions[i-1])-1]].Addr
		hiNext := insts[regions[i][0]].Addr
		if loPrev-hiNext < guardBand {
			t.Fatalf("region %d..%d gap %d < guard band", i-1, i, loPrev-hiNext)
		}
		// No 64-bit lock word holds bits of both regions: the lower
		// region's effects end before hiNext+effectReach, and the word of
		// the upper region's first byte begins above that.
		if firstWord, lastTouched := r.off(loPrev)&^63, r.off(hiNext+effectReach)-1; lastTouched >= firstWord {
			t.Fatalf("regions %d and %d share a lock word: offset %d reaches word at %d", i-1, i, lastTouched, firstWord)
		}
	}
	if guardBand-effectReach <= 64 {
		t.Fatalf("guardBand-effectReach = %d: concurrently patched regions could share a lock word", guardBand-effectReach)
	}
	// The decomposition ignores Workers entirely.
	r.opts.Workers = 7
	if !reflect.DeepEqual(r.decompose(order), regions) {
		t.Fatal("decomposition depends on Workers")
	}
	// Without a forced MinRegionSize this workload is too small to
	// split at all.
	r.opts.MinRegionSize = 0
	if got := r.decompose(order); len(got) != 1 {
		t.Fatalf("default MinRegionSize split %d locations into %d regions", len(order), len(got))
	}
}

// patchClustered patches the clustered program with the given worker
// count and returns the rewriter.
func patchClustered(t *testing.T, workers int) *Rewriter {
	t.Helper()
	opts := Options{MinRegionSize: 2, Workers: workers}
	r, insts := newTestRewriter(t, clusteredProgram(6, 320), opts)
	r.PatchAll(disasm.SelectJumps(insts))
	return r
}

// assertSameRewrite fails unless the two rewriters produced identical
// observable output.
func assertSameRewrite(t *testing.T, want, got *Rewriter, label string) {
	t.Helper()
	if !bytes.Equal(want.Code(), got.Code()) {
		t.Errorf("%s: patched text bytes differ", label)
	}
	if !reflect.DeepEqual(want.Trampolines(), got.Trampolines()) {
		t.Errorf("%s: trampolines differ", label)
	}
	if !reflect.DeepEqual(want.Results(), got.Results()) {
		t.Errorf("%s: per-location results differ", label)
	}
	if want.Stats() != got.Stats() {
		t.Errorf("%s: stats differ: %+v vs %+v", label, want.Stats(), got.Stats())
	}
	if !reflect.DeepEqual(want.locks, got.locks) {
		t.Errorf("%s: lock bitmaps differ", label)
	}
	if !reflect.DeepEqual(want.SigTab(), got.SigTab()) {
		t.Errorf("%s: sigtab differs", label)
	}
}

func TestParallelPatchIdenticalAcrossWorkers(t *testing.T) {
	base := patchClustered(t, 1)
	if st := base.Stats(); st.Patched() == 0 {
		t.Fatal("nothing patched")
	}
	for _, workers := range []int{0, 2, 8} {
		assertSameRewrite(t, base, patchClustered(t, workers), "workers="+string(rune('0'+workers)))
	}
}

func TestRegionConflictRedo(t *testing.T) {
	// Two Figure-1 sites whose only T1 window is the exact address
	// rel32=0x20c08348 away; with 300-byte trampolines and the sites
	// 295 bytes apart the two speculative reservations overlap, so the
	// lower region must conflict at commit and be redone — at every
	// worker count, producing identical bytes.
	build := func(a *x86.Asm) {
		figure1(a)
		for i := 0; i < 280; i++ {
			a.Nop()
		}
		figure1(a)
	}
	run := func(tmpl trampoline.Template, workers int) *Rewriter {
		opts := Options{
			Template:      tmpl,
			MinRegionSize: 1,
			Workers:       workers,
			DisableT2:     true,
			DisableT3:     true,
		}
		r, insts := newTestRewriter(t, build, opts)
		var sel []int
		for i := range insts {
			if insts[i].Addr == testTextAddr || insts[i].Addr == testTextAddr+295 {
				sel = append(sel, i)
			}
		}
		if len(sel) != 2 {
			t.Fatalf("expected 2 patch sites, found %d", len(sel))
		}
		r.PatchAll(sel)
		return r
	}
	// The redone region's child emits into a slab of its own, and what
	// the discarded speculation left in its slab reaches nobody.
	seq := run(fatTemplate(300), 1)
	par := run(fatTemplate(300), 4)
	if seq.redone != 1 || par.redone != 1 {
		t.Fatalf("redone = %d (seq) / %d (par), want 1 — conflict not exercised", seq.redone, par.redone)
	}
	assertSameRewrite(t, seq, par, "conflict redo")
	// The higher site won the overlapping window; the lower site's T1
	// must have failed on the redo (everything else is disabled).
	st := seq.Stats()
	if st.ByTactic[TacticT1] != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want exactly one T1 success and one failure", st)
	}
	// The redo took the speculation's bytes and locks back from the lower
	// site and left the higher site's alone.
	for _, r := range []*Rewriter{seq, par} {
		if !bytes.Equal(r.code[:effectReach], r.orig[:effectReach]) || r.anyLocked(testTextAddr, effectReach) {
			t.Fatal("the failed lower site kept bytes or locks of its discarded speculation")
		}
		if !r.anyLocked(testTextAddr+295, 1) {
			t.Fatal("the redo cleared the higher site's lock")
		}
	}
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

func TestApplyJournalConflictUnwinds(t *testing.T) {
	r, _ := newTestRewriter(t, figure1, Options{})
	before := r.space.Intervals()
	ops := []spaceOp{
		{lo: 0x900000, hi: 0x900100},
		{release: true, lo: 0x900000, hi: 0x900100},
		{lo: 0x900200, hi: 0x900300},
		{lo: 0x400000, hi: 0x400010}, // collides with the load image
	}
	if r.applyJournal(ops) {
		t.Fatal("conflicting journal reported success")
	}
	if !reflect.DeepEqual(r.space.Intervals(), before) {
		t.Fatal("unwind did not restore the space")
	}
	// A clean journal applies fully.
	if !r.applyJournal(ops[:3]) {
		t.Fatal("clean journal rejected")
	}
	if !r.space.Occupied(0x900200, 0x900300) || r.space.Occupied(0x900000, 0x900100) {
		t.Fatal("journal not applied correctly")
	}
}

func TestBeltFallbackSequential(t *testing.T) {
	// A space too small for even one arena forces the sequential
	// fallback; patching must still succeed and stay deterministic.
	build := clusteredProgram(4, 300)
	run := func(workers int) *Rewriter {
		a := x86.NewAsm(testTextAddr)
		build(a)
		code := a.MustFinish()
		res := disasm.Linear(code, testTextAddr)
		space := va.New(0x400000, 0x400000+2<<20)
		loadEnd := (testTextAddr + uint64(len(code)) + 0xFFF) &^ 0xFFF
		if err := space.Reserve(0x400000, loadEnd); err != nil {
			t.Fatal(err)
		}
		r := New(code, testTextAddr, res.Insts, space, loadEnd,
			Options{MinRegionSize: 2, Workers: workers})
		r.PatchAll(disasm.SelectJumps(res.Insts))
		return r
	}
	seq := run(1)
	if st := seq.Stats(); st.Patched() == 0 {
		t.Fatal("nothing patched under belt fallback")
	}
	assertSameRewrite(t, seq, run(8), "belt fallback")
}

func TestArenaUndoRestoresBump(t *testing.T) {
	ar := &arena{base: 0x1000, end: 0x2000, ptr: 0x1000}
	at, ok := ar.peek(0x40, 0, 1<<47)
	if !ok || at != 0x1000 {
		t.Fatalf("peek = %#x, %v", at, ok)
	}
	ar.ptr = at + 0x40
	r := &Rewriter{arena: ar}
	r.undoTrampoline(at, make([]byte, 0x40), true)
	if ar.ptr != 0x1000 {
		t.Fatalf("undo left ptr at %#x", ar.ptr)
	}
	// Out-of-window and out-of-space peeks fail.
	if _, ok := ar.peek(0x40, 0x3000, 1<<47); ok {
		t.Error("peek below window lo succeeded")
	}
	if _, ok := ar.peek(0x2000, 0, 1<<47); ok {
		t.Error("oversized peek succeeded")
	}
}
