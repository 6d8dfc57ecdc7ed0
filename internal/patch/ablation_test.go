package patch

import (
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/va"
	"e9patch/internal/x86"
)

// buildHostile assembles a program dense with hard-to-patch shapes:
// short jumps and small stores followed by MSB-set bytes.
func buildHostile(a *x86.Asm) {
	for i := 0; i < 60; i++ {
		skip := a.NewLabel()
		a.JccShort(x86.Cond(i%16), skip)          // 2-byte patch target
		a.Raw(0x81, 0xC3, 0x88, 0x99, 0xAA, 0xBB) // hostile bytes
		a.Bind(skip)
		a.MovMemReg64(x86.M(x86.RBX, int32(i%120)), x86.RAX) // small store
		a.Raw(0x81, 0xC1, 0x90, 0xA0, 0xB0, 0xC0)            // hostile bytes
		a.XorRegReg64(x86.RCX, x86.RAX)
		a.CmpMemImm8(x86.M(x86.RBX, -4), 77)
	}
	a.Ret()
}

func coverageWith(t *testing.T, opts Options) Stats {
	t.Helper()
	a := x86.NewAsm(testTextAddr)
	buildHostile(a)
	code := a.MustFinish()
	res, _ := disasm.Recover(disasm.ModeLinear, code, testTextAddr)
	space := va.NewDefault()
	loadEnd := (testTextAddr + uint64(len(code)) + 0xFFF) &^ 0xFFF
	if err := space.Reserve(0x400000, loadEnd+0x2000); err != nil {
		t.Fatal(err)
	}
	r := New(code, testTextAddr, res.Insts, space, loadEnd+0x2000, opts)
	sel := append(selectExpr(t, "branch", res.Insts), selectExpr(t, "heapwrite", res.Insts)...)
	return r.PatchAll(sel)
}

// TestTacticAblationMonotonicity: each enabled tactic can only improve
// coverage, and the full set beats every ablated set.
func TestTacticAblationMonotonicity(t *testing.T) {
	full := coverageWith(t, Options{})
	noT1 := coverageWith(t, Options{DisableT1: true})
	noT2 := coverageWith(t, Options{DisableT2: true})
	noT3 := coverageWith(t, Options{DisableT3: true})
	baseOnly := coverageWith(t, Options{DisableT1: true, DisableT2: true, DisableT3: true})

	// Tactics interfere (limitation L3): an early tactic success can
	// lock bytes or consume victims a later location needed, so strict
	// per-program monotonicity does not hold. The full configuration
	// must still be within noise of the best ablation.
	best := noT1.SuccPercent()
	if v := noT2.SuccPercent(); v > best {
		best = v
	}
	if v := noT3.SuccPercent(); v > best {
		best = v
	}
	if full.SuccPercent() < best-1.5 {
		t.Errorf("full tactics (%.2f) far below best ablation (%.2f)",
			full.SuccPercent(), best)
	}
	if baseOnly.SuccPercent() >= full.SuccPercent() {
		t.Errorf("baseline-only (%.2f) not below full (%.2f) on hostile input",
			baseOnly.SuccPercent(), full.SuccPercent())
	}
	// On this hostile input the baseline must fail a large share,
	// and T2/T3 must be doing real work in the full configuration.
	if baseOnly.BasePercent() > 80 {
		t.Errorf("hostile input not hostile enough: base %.2f", baseOnly.BasePercent())
	}
	if full.ByTactic[TacticT2]+full.ByTactic[TacticT3] == 0 {
		t.Error("eviction tactics never used on hostile input")
	}
}

// TestForceB0PatchesEverything: the §2.1.1 baseline covers 100% by
// construction (every first byte is writable).
func TestForceB0PatchesEverything(t *testing.T) {
	stats := coverageWith(t, Options{ForceB0: true, B0Fallback: true})
	if stats.SuccPercent() != 100 {
		t.Errorf("ForceB0 coverage %.2f", stats.SuccPercent())
	}
	if stats.ByTactic[TacticB0] != stats.Total {
		t.Errorf("not everything went through B0: %+v", stats)
	}
}

// TestLockStateInvariant: after patching, every byte that any punned
// jump depends on must be locked, and no failed location may have
// modified bytes.
func TestLockStateInvariant(t *testing.T) {
	a := x86.NewAsm(testTextAddr)
	buildHostile(a)
	code := a.MustFinish()
	orig := append([]byte(nil), code...)
	res, _ := disasm.Recover(disasm.ModeLinear, code, testTextAddr)
	space := va.NewDefault()
	loadEnd := (testTextAddr + uint64(len(code)) + 0xFFF) &^ 0xFFF
	if err := space.Reserve(0x400000, loadEnd+0x2000); err != nil {
		t.Fatal(err)
	}
	r := New(code, testTextAddr, res.Insts, space, loadEnd+0x2000, Options{})
	sel := selectExpr(t, "branch", res.Insts)
	r.PatchAll(sel)

	for _, lr := range r.Results() {
		o := int(lr.Addr - testTextAddr)
		if lr.Tactic == TacticNone {
			// Failed locations: first byte unchanged.
			if r.code[o] != orig[o] {
				t.Errorf("failed location %#x modified", lr.Addr)
			}
			continue
		}
		// Patched locations: first byte locked and changed to a jump
		// or prefix byte.
		if !r.anyLocked(lr.Addr, 1) {
			t.Errorf("patched location %#x first byte not locked", lr.Addr)
		}
	}
	// Every modified byte must be locked.
	for i := range r.code {
		if r.code[i] != orig[i] && !r.anyLocked(testTextAddr+uint64(i), 1) {
			t.Errorf("modified byte at +%#x not locked", i)
		}
	}
}
