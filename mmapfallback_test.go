package e9patch

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"e9patch/internal/elf64"
)

// openBothPaths loads path once through the mmap path and once with the
// portable fallback forced, failing if the mmap path did not actually
// map (regressions in the platform shim would silently degrade the
// zero-copy claim).
func openBothPaths(t *testing.T, path string) (mapped, read *elf64.Input) {
	t.Helper()
	mapped, err := elf64.OpenInput(path)
	if err != nil {
		t.Fatalf("OpenInput (mmap): %v", err)
	}
	t.Cleanup(func() { mapped.Close() })
	if !mapped.Mapped {
		t.Fatal("mmap path fell back to the portable read on this platform")
	}
	prev := elf64.SetMmapDisabledForTesting(true)
	read, err = elf64.OpenInput(path)
	elf64.SetMmapDisabledForTesting(prev)
	if err != nil {
		t.Fatalf("OpenInput (fallback): %v", err)
	}
	t.Cleanup(func() { read.Close() })
	if read.Mapped {
		t.Fatal("fallback path reported Mapped")
	}
	return mapped, read
}

// TestMmapFallbackDifferential drives the whole rewriter — not just the
// loader — over both input paths for every corpus binary: the hostile
// set plus the valid control and a branchy binary with real trampoline
// pressure. The two paths must agree exactly: identical bytes loaded,
// identical outputs on success, identically-classified errors on
// rejection. This is the contract that lets OpenInput treat mmap
// failure as a silent fallback rather than an error.
func TestMmapFallbackDifferential(t *testing.T) {
	corpus := hostileCorpus(t)
	corpus["branchy.bin"] = branchyELF(t)

	dir := t.TempDir()
	for name, data := range corpus {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			mapped, read := openBothPaths(t, path)
			if !bytes.Equal(mapped.Data, read.Data) {
				t.Fatal("mmap view and portable read loaded different bytes")
			}

			cfg := Config{Select: SelectJumps}
			mres, merr := Rewrite(mapped.Data, cfg)
			rres, rerr := Rewrite(read.Data, cfg)
			if classify(merr) != classify(rerr) {
				t.Fatalf("error classes diverged: mmap %v (%s) vs fallback %v (%s)",
					merr, classify(merr), rerr, classify(rerr))
			}
			requireContained(t, name, merr)
			if merr == nil && !bytes.Equal(mres.Output, rres.Output) {
				t.Fatal("rewritten outputs diverged between input paths")
			}
		})
	}
}
