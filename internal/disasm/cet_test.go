package disasm

import (
	"bytes"
	"testing"

	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestCETPruneClosure builds two endbr64-anchored functions separated
// by nop padding and a stretch of data-like junk: the closure must keep
// both function bodies (including a short backward loop) and prune the
// padding and everything decoded out of the junk.
func TestCETPruneClosure(t *testing.T) {
	a := x86.NewAsm(0x401000)
	// f0: anchored, with an internal direct branch.
	a.Endbr64()
	a.PushReg(x86.RBP)
	top := a.NewLabel()
	a.Bind(top)
	a.AddRegImm64(x86.RAX, 1)
	a.CmpRegImm64(x86.RAX, 10)
	a.JccShort(x86.CondL, top)
	a.PopReg(x86.RBP)
	a.Ret()
	// Inter-function padding: decodes fine, reachable from nothing.
	padOff := a.Len()
	a.Nop()
	a.Nop()
	// f1: anchored.
	f1Off := a.Len()
	a.Endbr64()
	a.XorRegReg64(x86.RCX, x86.RCX)
	a.Ret()
	code := a.MustFinish()

	sup := superset(code, 0x401000)
	anchors, _ := sup.cetPrune(nil)
	if anchors < 2 {
		t.Fatalf("anchors = %d, want >= 2", anchors)
	}
	// kept ⊆ valid by construction.
	n := 0
	for off := range code {
		if sup.keptAt(off) {
			n++
			if !sup.validAt(off) {
				t.Fatalf("offset %d kept but not valid", off)
			}
		}
	}
	keptAt := sup.keptAt
	// Both function bodies survive: walk the linear decode and check
	// every genuine instruction is kept (all are anchor-reachable here).
	lin := linear(code, 0x401000)
	for _, in := range lin.Insts {
		off := int(in.Addr - 0x401000)
		if off == padOff || off == padOff+1 {
			continue // the padding is the pruning target
		}
		if !keptAt(off) {
			t.Errorf("genuine instruction at offset %d pruned", off)
		}
	}
	if keptAt(padOff) || keptAt(padOff+1) {
		t.Error("unreachable padding survived CET pruning")
	}
	if !keptAt(f1Off) {
		t.Error("anchored second function pruned")
	}

	// Insts is in address order and matches the table's cardinality.
	insts, _ := sup.survivors(true, 1, nil, nil)
	if len(insts) != n {
		t.Fatalf("Insts returned %d, the table keeps %d", len(insts), n)
	}
	for i := 1; i < len(insts); i++ {
		if insts[i].Addr <= insts[i-1].Addr {
			t.Fatal("Insts not in address order")
		}
	}
}

// TestCETPruneSectionStartSeed checks the section entry counts as an
// anchor even without any endbr64, so non-CET code keeps its
// fall-through spine rather than collapsing to nothing.
func TestCETPruneSectionStartSeed(t *testing.T) {
	a := x86.NewAsm(0x401000)
	a.AddRegImm64(x86.RAX, 1)
	a.AddRegImm64(x86.RAX, 2)
	a.Ret()
	code := a.MustFinish()
	sup := superset(code, 0x401000)
	anchors, _ := sup.cetPrune(nil)
	if anchors != 1 {
		t.Fatalf("anchors = %d, want exactly the section start", anchors)
	}
	insts, _ := sup.survivors(true, 1, nil, nil)
	if len(insts) != 3 {
		t.Fatalf("kept %d insts, want the 3-instruction spine", len(insts))
	}
}

// TestCETPruneOnCETProfile runs the real generator: a CET workload
// profile recovers one anchor per generated function and the kept set
// stays within the refined valid set.
func TestCETPruneOnCETProfile(t *testing.T) {
	var cet *workload.Profile
	for i := range workload.ModernProfiles {
		if workload.ModernProfiles[i].CET && !workload.ModernProfiles[i].DSO {
			cet = &workload.ModernProfiles[i]
			break
		}
	}
	if cet == nil {
		t.Fatal("no CET profile registered")
	}
	prog, err := workload.BuildStatic(*cet, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	code, addr := textOf(t, prog.ELF)
	// The generator emits one endbr64 per function prologue.
	pads := bytes.Count(code, []byte{0xF3, 0x0F, 0x1E, 0xFA})
	if pads == 0 {
		t.Fatal("CET profile has no endbr64 landing pads")
	}
	sup := superset(code, addr)
	anchors, _ := sup.cetPrune(nil)
	if anchors < pads {
		t.Errorf("anchors %d < %d endbr64 pads", anchors, pads)
	}
	for off := range code {
		if sup.keptAt(off) && !sup.validAt(off) {
			t.Fatal("kept instruction not valid")
		}
	}
	// The closure recovers the bulk of the linear stream. It is not
	// 100%: inter-function nop padding and code the generator emits
	// after an unconditional jmp (dead, targeted by nothing) are
	// correctly classified unreachable.
	lin := linear(code, addr)
	reached := 0
	for _, in := range lin.Insts {
		if sup.keptAt(int(in.Addr - addr)) {
			reached++
		}
	}
	if frac := float64(reached) / float64(len(lin.Insts)); frac < 0.6 {
		t.Errorf("CET closure reaches only %.1f%% of the linear stream", 100*frac)
	}
	if reached == len(lin.Insts) {
		t.Error("closure reached everything: the padding should have been pruned")
	}
}
