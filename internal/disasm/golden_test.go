package disasm

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"e9patch/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the Universe section of testdata/disasm_golden.json")

// goldenText is the amount of .text each golden cell recovers: large
// enough that widths 2 and 8 really shard the sweep (three 16 KB
// shards), small enough that the whole matrix stays cheap.
const goldenText = 0.06e6

// goldenCell is the recovered universe of one profile under one
// superset-family mode.
type goldenCell struct {
	Digest                        string
	Decoded, Valid, Kept, Anchors int
}

// goldenFile is testdata/disasm_golden.json as this package sees it:
// Universe is keyed "profile/mode"; Rewrite belongs to the root
// package's TestDisasmGoldenRewrite and is carried through untouched.
type goldenFile struct {
	Universe map[string]goldenCell
	Rewrite  json.RawMessage
}

// TestDisasmGolden pins what the superset frontends recover. Linear
// output is anchored by testdata/rewrite_golden.json; this is the same
// anchor for superset and superset-cet: UniverseDigest and the
// SupersetStats of every workload profile under both modes, required
// to be identical at widths 1, 2 and 8. The file was recorded from the
// one-x86.Inst-per-offset implementation the table replaced; re-record
// it, only for an intentional change of the recovered universe, with
// (one after the other: both rewrite the one file):
//
//	go test ./internal/disasm/ -run TestDisasmGolden -update
//	go test . -run TestDisasmGoldenRewrite -update
func TestDisasmGolden(t *testing.T) {
	got := map[string]goldenCell{}
	for _, p := range workload.AllProfiles() {
		scale := goldenText / (p.SizeMB * 1e6)
		if scale > 1 {
			scale = 1
		}
		prog, err := workload.BuildStatic(p, scale)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		code, addr := textOf(t, prog.ELF)
		for _, mode := range []Mode{ModeSuperset, ModeSupersetCET} {
			key := p.Name + "/" + string(mode)
			for _, width := range []int{1, 2, 8} {
				res, st, ok := RecoverCancel(mode, code, addr, width, nil, nil)
				if !ok || st == nil {
					t.Fatalf("%s width %d: recovery failed", key, width)
				}
				cell := goldenCell{
					Digest:  UniverseDigest(mode, res),
					Decoded: st.Decoded, Valid: st.Valid, Kept: st.Kept, Anchors: st.Anchors,
				}
				if width == 1 {
					got[key] = cell
				} else if cell != got[key] {
					t.Errorf("%s: width %d recovered %+v, width 1 %+v", key, width, cell, got[key])
				}
			}
		}
	}

	path := filepath.Join("..", "..", "testdata", "disasm_golden.json")
	var file goldenFile
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if *updateGolden {
		file.Universe = got
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
	for key, want := range file.Universe {
		if g, ok := got[key]; !ok || g != want {
			t.Errorf("%s: recovered %+v, golden %+v", key, g, want)
		}
	}
	if len(got) != len(file.Universe) {
		t.Errorf("%s holds %d cells for a %d-cell matrix (regenerate with -update)", path, len(file.Universe), len(got))
	}
}
