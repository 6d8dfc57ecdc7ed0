package e9patch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"e9patch/internal/va"
	"e9patch/internal/workload"
)

// disasmGoldenRewrites are the `go run ./bench` recover-cet classes,
// rewritten at that workload's .text size.
var disasmGoldenRewrites = []struct {
	profile string
	mode    DisasmMode
}{
	{"nginx-cet", DisasmSupersetCET},
	{"libcrypto-cet.so", DisasmSupersetCET},
	{"libz.so", DisasmSuperset},
	{"nginx-cet", DisasmSuperset},
	{"libcrypto-cet.so", DisasmSuperset},
}

const disasmGoldenRewriteText = 125_000

// TestDisasmGoldenRewrite anchors the output bytes of superset-mode
// rewrites, which testdata/rewrite_golden.json (linear only) does not:
// the SHA-256 of Rewrite's output for the five recover-cet class
// shapes under A2 `heapwrite & len>=5`, in the Rewrite section of
// testdata/disasm_golden.json (internal/disasm's TestDisasmGolden owns
// the Universe section and carries the recipe that re-records both).
func TestDisasmGoldenRewrite(t *testing.T) {
	sel, err := SelectMatch("heapwrite & len>=5")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, c := range disasmGoldenRewrites {
		p, err := workload.ProfileByName(c.profile)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.BuildStatic(p, disasmGoldenRewriteText/(p.SizeMB*1e6))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Select: sel, Disasm: c.mode, ReserveVA: workload.ReserveVA()}
		if p.Kind == workload.KindShared {
			cfg.ReserveVA = append(cfg.ReserveVA, [2]uint64{va.DefaultMin, PIEBase})
		}
		key := c.profile + "/" + string(c.mode)
		res, err := Rewrite(prog.ELF, cfg)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if res.Stats.Patched() == 0 {
			t.Errorf("%s: nothing patched", key)
		}
		sum := sha256.Sum256(res.Output)
		got[key] = hex.EncodeToString(sum[:])
	}

	path := filepath.Join("testdata", "disasm_golden.json")
	var file struct {
		Universe json.RawMessage
		Rewrite  map[string]string
	}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if *updateGolden {
		file.Rewrite = got
		out, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	for key, want := range file.Rewrite {
		if got[key] != want {
			t.Errorf("%s: output hash %s, golden %s", key, got[key], want)
		}
	}
	if len(got) != len(file.Rewrite) {
		t.Errorf("%s holds %d hashes for %d rewrites (regenerate with -update)", path, len(file.Rewrite), len(got))
	}
}
