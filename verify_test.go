package e9patch

import (
	"encoding/binary"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/group"
	"e9patch/internal/loader"
	"e9patch/internal/patch"
	"e9patch/internal/verify"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// verifyRewrite runs the independent output checker (internal/verify)
// over a rewrite of input under cfg: every check must pass.
func verifyRewrite(t testing.TB, label string, input []byte, cfg Config, res *Result) {
	t.Helper()
	rep, err := verify.Check(input, res.Output, verifyConfig(cfg, res.Bias))
	if err != nil {
		t.Fatalf("%s: verify: %v", label, err)
	}
	if err := rep.Err(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// verifyConfig is what the checker needs to know of a rewrite's
// configuration: how it recovered its universe and which images it
// injected, in link addresses.
func verifyConfig(cfg Config, bias uint64) verify.Config {
	vc := verify.Config{Disasm: cfg.Disasm, SkipPrefix: cfg.SkipPrefix}
	for _, inj := range cfg.Inject {
		vc.Images = append(vc.Images, [2]uint64{inj.Addr - bias, inj.Addr - bias + uint64(len(inj.Data))})
	}
	return vc
}

// TestVerifyMutants: each check of the output checker fails on an
// output mutated against it, and an output rewritten twice (P6), built
// by hand past the refusal of rewritten inputs, fails check (d).
func TestVerifyMutants(t *testing.T) {
	prog, err := workload.BuildKernel("branchy", false)
	if err != nil {
		t.Fatal(err)
	}
	in := prog.ELF
	cfg := Config{Select: SelectJumps}
	res, err := Rewrite(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	verifyRewrite(t, "branchy/A1", in, cfg, res)
	f, err := elf64.Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	textOff, textAddr, textSize, err := f.TextRange()
	if err != nil {
		t.Fatal(err)
	}
	univ, _ := disasm.Recover(disasm.ModeLinear, in[textOff:textOff+textSize], textAddr)
	patched := map[uint64]patch.Tactic{}
	for _, l := range res.Locations {
		patched[l.Addr-res.Bias] = l.Tactic
	}
	// fileOff is the file offset of the first instruction that pred
	// accepts.
	fileOff := func(pred func(l *x86.Loc) bool) (uint64, *x86.Loc) {
		for i := range univ.Insts {
			if l := &univ.Insts[i]; pred(l) {
				return textOff + l.Addr - textAddr, l
			}
		}
		t.Fatal("no such instruction")
		return 0, nil
	}
	mutant := func(edit func(out []byte) []byte) []byte {
		return edit(append([]byte(nil), res.Output...))
	}

	// (d): the table without its last row.
	blob, _ := elf64.AppendedBlob(res.Output)
	table, err := loader.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	g := &group.Result{Blocks: table.Blocks, Mappings: table.Mappings[:len(table.Mappings)-1]}
	g.Stats.BlockSize = table.BlockSize
	dropRow := elf64.Compose(res.Output[:len(in)], 0, nil, loader.Encode(g, int(table.Granularity), table.SigTab, table.Entry))

	// P6: the A1 output, its trailer cut so that it reads as an
	// original, rewritten again under A2.
	twice, err := Rewrite(res.Output[:len(res.Output)-24], Config{Select: SelectHeapWrites})
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range []struct {
		check byte
		name  string
		out   []byte
	}{
		{'a', "a changed byte inside an unpatched instruction", mutant(func(out []byte) []byte {
			off, l := fileOff(func(l *x86.Loc) bool { _, ok := patched[l.Addr]; return !ok && l.Len >= 2 })
			out[off+uint64(l.Len)-1] ^= 0xFF
			return out
		})},
		{'b', "a patch jump retargeted into the text", mutant(func(out []byte) []byte {
			off, l := fileOff(func(l *x86.Loc) bool { return patched[l.Addr] == patch.TacticB1 })
			binary.LittleEndian.PutUint32(out[off+1:], uint32(int32(int64(textAddr)-int64(l.Addr+5))))
			return out
		})},
		{'d', "the table's last row dropped", dropRow},
		{'d', "P6: rewritten twice", twice.Output},
		{'e', "a byte past .text changed", mutant(func(out []byte) []byte {
			out[len(in)-1] ^= 0xFF
			return out
		})},
	} {
		rep, err := verify.Check(in, m.out, verify.Config{})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !rep.Failed(m.check) {
			t.Errorf("%s: check (%c) passed; report: %v", m.name, m.check, rep.Err())
		}
		t.Logf("%s: %v", m.name, rep.Err())
	}
}

// TestVerifyB0: int3 patches and their dispatch table pass the
// checker, and an int3 whose dispatch entry is gone fails it.
func TestVerifyB0(t *testing.T) {
	prog, err := workload.BuildKernel("branchy", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Select: SelectJumps, Patch: patch.Options{DisableT1: true, DisableT2: true, DisableT3: true, B0Fallback: true}}
	res, err := Rewrite(prog.ELF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ByTactic[patch.TacticB0] == 0 {
		t.Fatal("no B0 patch")
	}
	verifyRewrite(t, "branchy/B0", prog.ELF, cfg, res)
	blob, _ := elf64.AppendedBlob(res.Output)
	table, err := loader.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for k := range table.SigTab {
		delete(table.SigTab, k)
		break
	}
	g := &group.Result{Blocks: table.Blocks, Mappings: table.Mappings}
	g.Stats.BlockSize = table.BlockSize
	out := elf64.Compose(res.Output[:len(prog.ELF)], 0, nil, loader.Encode(g, int(table.Granularity), table.SigTab, table.Entry))
	rep, err := verify.Check(prog.ELF, out, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Error("an int3 patch without its dispatch entry passed")
	}
}
