package disasm_test

import (
	"testing"

	"e9patch"
	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/verify"
)

// FuzzSupersetPrune's code, as the text of an executable, rewritten
// under both superset modes with every instruction selected: each
// output must pass the output checker.
func init() {
	disasm.SetRewriteOracle(func(t *testing.T, code []byte) {
		if len(code) == 0 {
			return
		}
		bin, err := elf64.Build(elf64.BuildSpec{Text: code})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []disasm.Mode{disasm.ModeSuperset, disasm.ModeSupersetCET} {
			res, err := e9patch.Rewrite(bin, e9patch.Config{Select: e9patch.SelectAll, Disasm: mode})
			if err != nil {
				t.Fatalf("%s: rewrite: %v", mode, err)
			}
			rep, err := verify.Check(bin, res.Output, verify.Config{Disasm: mode})
			if err != nil {
				t.Fatalf("%s: verify: %v", mode, err)
			}
			if err := rep.Err(); err != nil {
				t.Errorf("%s: %v", mode, err)
			}
		}
	})
}
