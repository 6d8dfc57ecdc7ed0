package e9patch

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/patch"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// Differential test corpus for the parallel pipeline: every binary ×
// tactic configuration × parallelism level must produce output
// byte-identical to the sequential rewrite, with identical statistics,
// per-location outcomes and warnings. Parallelism is pure scheduling.

// assertSameParallelResult compares everything a caller can observe.
func assertSameParallelResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if !bytes.Equal(want.Output, got.Output) {
		t.Errorf("%s: output bytes differ from sequential rewrite", label)
	}
	if want.Stats != got.Stats {
		t.Errorf("%s: stats differ: %+v vs %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Locations, got.Locations) {
		t.Errorf("%s: per-location results differ", label)
	}
	if !reflect.DeepEqual(want.Warnings, got.Warnings) {
		t.Errorf("%s: warnings differ: %v vs %v", label, want.Warnings, got.Warnings)
	}
	if want.Trampolines != got.Trampolines || want.Mappings != got.Mappings ||
		want.Insts != got.Insts || want.BadBytes != got.BadBytes {
		t.Errorf("%s: pipeline counters differ", label)
	}
}

// hostileELF assembles the T2/T3 scenario from the patch tests as a
// standalone binary: a 3-byte heap write whose successor bytes force
// negative rel32 windows, so only eviction tactics can patch it.
func hostileELF(t testing.TB) []byte {
	t.Helper()
	a := x86.NewAsm(elf64.DefaultBase + elf64.TextVaddrOff)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX)
	a.Raw(0x81, 0xC3, 0x88, 0x99, 0xAA, 0xBB)
	a.XorRegReg64(x86.RCX, x86.RAX)
	a.CmpMemImm8(x86.M(x86.RBX, -4), 77)
	a.Ret()
	text, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildTestELF(text)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// parallelCorpusConfigs spans the tactic space: each configuration
// drives different escalation paths (B1/B2/T1 on the plain ones, T2 or
// T3 via the ablations, B0 forced and as fallback).
var parallelCorpusConfigs = []struct {
	name string
	cfg  Config
}{
	{"A1", Config{Select: SelectJumps}},
	{"A2", Config{Select: SelectHeapWrites}},
	{"all-b0fallback", Config{Select: SelectAll, Patch: patch.Options{B0Fallback: true}}},
	{"A2-noT2", Config{Select: SelectHeapWrites, Patch: patch.Options{DisableT2: true}}},
	{"A2-noT1T2T3", Config{Select: SelectHeapWrites,
		Patch: patch.Options{DisableT1: true, DisableT2: true, DisableT3: true, B0Fallback: true}}},
	{"forceB0", Config{Select: SelectJumps, Patch: patch.Options{ForceB0: true}}},
}

func TestParallelRewriteCorpusKernels(t *testing.T) {
	type binEntry struct {
		name string
		bin  []byte
	}
	var corpus []binEntry
	for _, arch := range []string{"branchy", "memstream", "matrix", "pointer", "callheavy"} {
		prog, err := workload.BuildKernel(arch, arch == "matrix" || arch == "pointer")
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, binEntry{arch, prog.ELF})
	}
	corpus = append(corpus, binEntry{"hostile", hostileELF(t)})

	var covered patch.Stats
	for _, be := range corpus {
		for _, tc := range parallelCorpusConfigs {
			cfg := tc.cfg
			cfg.ReserveVA = append(cfg.ReserveVA, workload.ReserveVA()...)
			cfg.Parallelism = 1
			seq, err := Rewrite(be.bin, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", be.name, tc.name, err)
			}
			for i := range covered.ByTactic {
				covered.ByTactic[i] += seq.Stats.ByTactic[i]
			}
			for _, par := range []int{2, 8} {
				cfg.Parallelism = par
				res, err := Rewrite(be.bin, cfg)
				if err != nil {
					t.Fatalf("%s/%s/p=%d: %v", be.name, tc.name, par, err)
				}
				assertSameParallelResult(t, seq, res,
					fmt.Sprintf("%s/%s/p=%d", be.name, tc.name, par))
			}
		}
	}
	// The corpus must exercise every tactic at least once.
	for _, tac := range []patch.Tactic{patch.TacticB1, patch.TacticB2, patch.TacticT1,
		patch.TacticT2, patch.TacticT3, patch.TacticB0} {
		if covered.ByTactic[tac] == 0 {
			t.Errorf("corpus never exercised tactic %v", tac)
		}
	}
}

// TestParallelRewriteProfiles drives the sharded disassembly and
// matching phases over SPEC profile binaries large enough to split
// into several shards at every width.
func TestParallelRewriteProfiles(t *testing.T) {
	cases := []struct {
		profile string
		scale   float64
		cfg     Config
	}{
		{"gcc", 0.1, Config{Select: SelectJumps}},
		{"gcc", 0.1, Config{Select: SelectHeapWrites}},
		{"gamess", 0.05, Config{Select: SelectHeapWrites}},
	}
	for _, tc := range cases {
		p, err := workload.ProfileByName(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.BuildStatic(p, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tc.cfg
		cfg.Parallelism = 1
		seq, err := Rewrite(prog.ELF, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Stats.Total < 1000 {
			t.Fatalf("%s: only %d locations — not a multi-shard workload", tc.profile, seq.Stats.Total)
		}
		for _, par := range []int{2, 8} {
			cfg.Parallelism = par
			res, err := Rewrite(prog.ELF, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameParallelResult(t, seq, res,
				fmt.Sprintf("%s@%g/p=%d", tc.profile, tc.scale, par))
		}
	}
}

// TestDiagnoseSelectionCoordinates covers both directions of the
// address-coordinate diagnostic — including the non-PIE direction,
// which previously produced no warning at all.
func TestDiagnoseSelectionCoordinates(t *testing.T) {
	mkText := func(base uint64) []byte {
		a := x86.NewAsm(base)
		a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX)
		a.AddRegImm64(x86.RAX, 32)
		a.Ret()
		text, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	const linkText = elf64.DefaultBase + elf64.TextVaddrOff
	nonPIE, err := buildTestELF(mkText(linkText))
	if err != nil {
		t.Fatal(err)
	}
	pie, err := elf64.Build(elf64.BuildSpec{
		PIE:      true,
		Text:     mkText(elf64.TextVaddrOff),
		Data:     make([]byte, 64),
		BSSSize:  0x1000,
		EntryOff: 0,
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		bin      []byte
		addr     uint64
		matches  int
		wantWarn string
	}{
		{"nonPIE-correct", nonPIE, linkText, 1, ""},
		{"nonPIE-runtime-style", nonPIE, linkText + PIEBase, 0, "not PIE"},
		{"PIE-correct", pie, PIEBase + elf64.TextVaddrOff, 1, ""},
		{"PIE-file-relative", pie, elf64.TextVaddrOff, 0, "file-relative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Rewrite(tc.bin, Config{Select: SelectAddresses(tc.addr)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Total != tc.matches {
				t.Fatalf("selected %d locations, want %d", res.Stats.Total, tc.matches)
			}
			if tc.wantWarn == "" {
				if len(res.Warnings) != 0 {
					t.Fatalf("unexpected warnings: %v", res.Warnings)
				}
				return
			}
			if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], tc.wantWarn) {
				t.Fatalf("warnings = %v, want one mentioning %q", res.Warnings, tc.wantWarn)
			}
		})
	}

	// An empty selection that is empty in BOTH coordinate systems (no
	// jumps in a jump-free binary) must stay silent.
	res, err := Rewrite(nonPIE, Config{Select: SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total != 0 || len(res.Warnings) != 0 {
		t.Fatalf("false-positive diagnostic: total=%d warnings=%v", res.Stats.Total, res.Warnings)
	}
}

// FuzzParallelRewrite cross-checks random programs under random
// parallelism against the sequential rewrite, whose output must pass
// the output checker (internal/verify). What the sequential rewrite
// does when it runs is FuzzLockStep's and the genProgram lock-step
// cells' to check.
func FuzzParallelRewrite(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed*5+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		rng := rand.New(rand.NewSource(seed))
		bin, err := genProgram(rng, seed%2 == 0)
		if err != nil {
			t.Skip() // assembler rejected the combination; not a rewrite bug
		}
		width := int(knobs%8) + 2 // 2..9 workers
		mk := func(par int) Config {
			return Config{
				Select:      SelectJumps,
				Parallelism: par,
				Patch:       patch.Options{B0Fallback: knobs%2 == 0},
			}
		}
		seq, err := Rewrite(bin, mk(1))
		if err != nil {
			t.Fatal(err)
		}
		verifyRewrite(t, fmt.Sprintf("seed=%d", seed), bin, mk(1), seq)
		par, err := Rewrite(bin, mk(width))
		if err != nil {
			t.Fatal(err)
		}
		assertSameParallelResult(t, seq, par,
			fmt.Sprintf("seed=%d width=%d", seed, width))
	})
}
