package disasm

import (
	"testing"

	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", ModeLinear, true},
		{"linear", ModeLinear, true},
		{"superset", ModeSuperset, true},
		{"superset-cet", ModeSupersetCET, true},
		{"SUPERSET", "", false},
		{"recursive", "", false},
		{"linear ", "", false},
	} {
		got, err := ParseMode(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseMode(%q) err = %v, want ok=%t", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseMode(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if len(Modes()) != 3 {
		t.Errorf("Modes() = %v", Modes())
	}
}

// TestRecoverLinearIdentity pins the tentpole's compatibility bar: the
// mode dispatcher in linear mode (and with the zero-value mode) is
// byte-identical to the plain linear sweep at every width.
func TestRecoverLinearIdentity(t *testing.T) {
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.BuildStatic(p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	code, addr := textOf(t, prog.ELF)
	want := linear(code, addr)
	for _, mode := range []Mode{"", ModeLinear} {
		for _, width := range []int{1, 2, 3, 8} {
			got, stats, ok := RecoverCancel(mode, code, addr, width, nil, nil)
			if !ok {
				t.Fatalf("mode %q width %d: cancelled without cancel", mode, width)
			}
			if stats != nil {
				t.Errorf("mode %q width %d: non-nil superset stats", mode, width)
			}
			if got.BadBytes != want.BadBytes || len(got.Insts) != len(want.Insts) {
				t.Fatalf("mode %q width %d: %d insts %d bad, want %d insts %d bad",
					mode, width, len(got.Insts), got.BadBytes, len(want.Insts), want.BadBytes)
			}
			for i := range got.Insts {
				if got.Insts[i].Addr != want.Insts[i].Addr || got.Insts[i].Len != want.Insts[i].Len {
					t.Fatalf("mode %q width %d: inst %d = %#x/%d, want %#x/%d",
						mode, width, i, got.Insts[i].Addr, got.Insts[i].Len, want.Insts[i].Addr, want.Insts[i].Len)
				}
			}
		}
	}
}

// TestRecoverSupersetStats checks the dispatcher's bookkeeping for the
// superset family: kept == len(Insts), kept <= valid <= decoded, and
// CET keeps a subset of plain superset.
func TestRecoverSupersetStats(t *testing.T) {
	a := x86.NewAsm(0x401000)
	for f := 0; f < 3; f++ {
		a.Endbr64()
		a.PushReg(x86.RBP)
		a.MovRegReg64(x86.RBP, x86.RSP)
		a.AddRegImm64(x86.RAX, 7)
		a.PopReg(x86.RBP)
		a.Ret()
		a.Nop() // inter-function padding: unreachable from any anchor
	}
	code := a.MustFinish()

	resS, statsS, _ := RecoverCancel(ModeSuperset, code, 0x401000, 1, nil, nil)
	resC, statsC, _ := RecoverCancel(ModeSupersetCET, code, 0x401000, 1, nil, nil)
	for _, c := range []struct {
		name  string
		res   Result
		stats *SupersetStats
	}{{"superset", resS, statsS}, {"superset-cet", resC, statsC}} {
		if c.stats == nil {
			t.Fatalf("%s: nil stats", c.name)
		}
		if c.stats.Kept != len(c.res.Insts) {
			t.Errorf("%s: Kept %d != %d insts", c.name, c.stats.Kept, len(c.res.Insts))
		}
		if c.stats.Kept > c.stats.Valid || c.stats.Valid > c.stats.Decoded {
			t.Errorf("%s: kept/valid/decoded not monotone: %+v", c.name, c.stats)
		}
	}
	if statsC.Anchors < 3 {
		t.Errorf("CET anchors = %d, want >= 3 (one per endbr64)", statsC.Anchors)
	}
	if statsS.Anchors != 0 {
		t.Errorf("plain superset reported anchors: %d", statsS.Anchors)
	}
	if statsC.Kept >= statsS.Kept {
		t.Errorf("CET pruning kept everything: %d vs %d (padding should be pruned)", statsC.Kept, statsS.Kept)
	}
	if statsC.PruneRatio() <= statsS.PruneRatio() {
		t.Errorf("prune ratios not ordered: cet %.3f vs superset %.3f", statsC.PruneRatio(), statsS.PruneRatio())
	}
	if r := (*SupersetStats)(nil).PruneRatio(); r != 0 {
		t.Errorf("nil stats PruneRatio = %v", r)
	}
}

// TestUniverseDigestModeBinding checks the property Apply relies on to
// reject cross-mode plan replay: the digest covers the mode name and
// the full (addr, len) universe, so the same binary under different
// modes — or a tampered mode string on the same instruction set —
// never collides.
func TestUniverseDigestModeBinding(t *testing.T) {
	a := x86.NewAsm(0x401000)
	a.Endbr64()
	a.AddRegImm64(x86.RAX, 1)
	a.Ret()
	code := a.MustFinish()

	digests := map[string]Mode{}
	for _, mode := range Modes() {
		res, _, _ := RecoverCancel(mode, code, 0x401000, 1, nil, nil)
		d := UniverseDigest(mode, res)
		if prev, dup := digests[d]; dup {
			t.Fatalf("digest collision between modes %q and %q", prev, mode)
		}
		digests[d] = mode
	}

	// Same instruction universe, different claimed mode: distinct — a
	// plan whose mode string is tampered fails verification even if the
	// universes coincide.
	res, _, _ := RecoverCancel(ModeLinear, code, 0x401000, 1, nil, nil)
	if UniverseDigest(ModeLinear, res) == UniverseDigest(ModeSuperset, res) {
		t.Fatal("digest ignores the mode")
	}
	// Universe perturbation: distinct.
	res2 := res
	res2.BadBytes++
	if UniverseDigest(ModeLinear, res) == UniverseDigest(ModeLinear, res2) {
		t.Fatal("digest ignores BadBytes")
	}
	if len(res.Insts) > 0 {
		res3 := Result{Insts: res.Insts[1:], BadBytes: res.BadBytes}
		if UniverseDigest(ModeLinear, res) == UniverseDigest(ModeLinear, res3) {
			t.Fatal("digest ignores the instruction set")
		}
	}
}

// TestSupersetContainsLinearAllProfiles is the mode differential the
// issue asks for: on every workload profile the superset-refined
// instruction set contains every linear instruction, at matching
// lengths.
func TestSupersetContainsLinearAllProfiles(t *testing.T) {
	for _, p := range workload.AllProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			// Scale every profile to roughly the same text size so the
			// sweep stays cheap on the multi-MB entries.
			scale := 0.06 / p.SizeMB
			if scale > 1 {
				scale = 1
			}
			prog, err := workload.BuildStatic(p, scale)
			if err != nil {
				t.Fatal(err)
			}
			code, addr := textOf(t, prog.ELF)
			// The differential holds over genuine code: profiles with an
			// embedded data prefix (Chrome) are compared past it, exactly
			// where the rewriter's SkipPrefix starts — linear "decodes"
			// of data bytes are junk the refinement rightly prunes.
			skip := workload.DataPrefixBytes(p, scale)
			code, addr = code[skip:], addr+skip
			lin := linear(code, addr)
			sup, _, _ := RecoverCancel(ModeSuperset, code, addr, 4, nil, nil)
			lenAt := make(map[uint64]uint8, len(sup.Insts))
			for i := range sup.Insts {
				lenAt[sup.Insts[i].Addr] = sup.Insts[i].Len
			}
			for i := range lin.Insts {
				l, ok := lenAt[lin.Insts[i].Addr]
				if !ok {
					t.Fatalf("linear inst at %#x missing from superset", lin.Insts[i].Addr)
				}
				if l != lin.Insts[i].Len {
					t.Fatalf("length mismatch at %#x: superset %d, linear %d", lin.Insts[i].Addr, l, lin.Insts[i].Len)
				}
			}
			if len(sup.Insts) < len(lin.Insts) {
				t.Fatalf("superset smaller than linear: %d < %d", len(sup.Insts), len(lin.Insts))
			}
		})
	}
}
