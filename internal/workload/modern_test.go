package workload

import (
	"bytes"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
)

// TestModernProfiles covers the CET and DSO rows: the CET text carries
// endbr64 landing pads at function prologues, the DSO rows build plain
// ET_DYN shared objects with no entry point, and everything still
// decodes cleanly.
func TestModernProfiles(t *testing.T) {
	if len(ModernProfiles) == 0 {
		t.Fatal("no modern profiles registered")
	}
	sawCET, sawDSO := false, false
	for _, p := range ModernProfiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog, err := BuildStatic(p, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			f, err := elf64.Parse(prog.ELF)
			if err != nil {
				t.Fatal(err)
			}
			text, addr, err := f.Text()
			if err != nil {
				t.Fatal(err)
			}
			res, _ := disasm.Recover(disasm.ModeLinear, text, addr)
			if res.BadBytes > len(text)/1000 {
				t.Errorf("%d bad bytes in %d", res.BadBytes, len(text))
			}

			pads := bytes.Count(text, []byte{0xF3, 0x0F, 0x1E, 0xFA})
			if p.CET {
				sawCET = true
				if pads == 0 {
					t.Error("CET profile has no endbr64 pads")
				}
				// The superset-cet frontend finds the anchors.
				_, stats, ok := disasm.RecoverCancel(disasm.ModeSupersetCET, text, addr, 2, nil, nil)
				if !ok || stats == nil {
					t.Fatal("superset-cet recovery failed")
				}
				if stats.Anchors < pads {
					t.Errorf("anchors %d < %d pads", stats.Anchors, pads)
				}
				if stats.Kept == 0 || stats.Kept > stats.Valid {
					t.Errorf("degenerate stats: %+v", stats)
				}
			} else if pads != 0 {
				t.Errorf("non-CET profile emitted %d endbr64 pads", pads)
			}

			if p.DSO {
				sawDSO = true
				if !f.IsDSO() {
					t.Error("DSO profile did not build an entry-less ET_DYN")
				}
				if !prog.PIE {
					t.Error("DSO program not marked position independent")
				}
			} else if f.IsDSO() {
				t.Error("non-DSO profile built a DSO")
			}
		})
	}
	if !sawCET || !sawDSO {
		t.Errorf("profile coverage: CET=%v DSO=%v", sawCET, sawDSO)
	}

	// The modern rows ride along in the full profile sweep.
	all := AllProfiles()
	found := 0
	for _, p := range all {
		for _, m := range ModernProfiles {
			if p.Name == m.Name {
				found++
			}
		}
	}
	if found != len(ModernProfiles) {
		t.Errorf("AllProfiles carries %d of %d modern rows", found, len(ModernProfiles))
	}
}

// TestPaperSharedRowsUnchanged pins the deliberate compatibility
// choice: the paper-era KindShared rows (libc.so, …) keep building as
// PIE-shaped executables so Table-1 numbers are unperturbed; only
// DSO-flagged rows switch to entry-0 shared objects.
func TestPaperSharedRowsUnchanged(t *testing.T) {
	for _, p := range SystemProfiles {
		if p.Kind != KindShared || p.DSO {
			continue
		}
		prog, err := BuildStatic(p, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		f, err := elf64.Parse(prog.ELF)
		if err != nil {
			t.Fatal(err)
		}
		if f.IsDSO() {
			t.Fatalf("%s: paper-era shared row became an entry-less DSO", p.Name)
		}
		return // one row suffices
	}
	t.Skip("no paper-era KindShared row")
}
