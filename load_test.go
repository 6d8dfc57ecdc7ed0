package e9patch

import (
	"bytes"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/group"
	"e9patch/internal/loader"
)

// loadTestTable is a two-chunk grouping result for the Load tests.
func loadTestTable(t *testing.T) *group.Result {
	t.Helper()
	res, err := group.Build([]group.Chunk{
		{Addr: 0x700100, Data: []byte{0xDE, 0xAD}},
		{Addr: 0x702800, Data: []byte{0xBE, 0xEF, 0x01}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLoad(t *testing.T) {
	text := bytes.Repeat([]byte{0x90}, 64)
	text[0] = 0xC3
	bin, err := elf64.Build(elf64.BuildSpec{Text: text, Data: []byte("datadata"), BSSSize: 0x100})
	if err != nil {
		t.Fatal(err)
	}
	sig := map[uint64]uint64{0x401001: 0x700100}
	out := elf64.Compose(bin, 0, nil, loader.Encode(loadTestTable(t), 1, sig, 0x401000))

	m := emu.NewMachine()
	entry, err := Load(m, out)
	if err != nil {
		t.Fatal(err)
	}
	if entry != elf64.DefaultBase+elf64.TextVaddrOff {
		t.Errorf("entry = %#x", entry)
	}
	// Text present.
	b, ok := m.Mem.ReadBytes(entry, 1)
	if !ok || b[0] != 0xC3 {
		t.Error("text not loaded")
	}
	// Trampoline bytes present at their virtual addresses.
	b, _ = m.Mem.ReadBytes(0x700100, 2)
	if b[0] != 0xDE || b[1] != 0xAD {
		t.Errorf("trampoline bytes = % x", b)
	}
	b, _ = m.Mem.ReadBytes(0x702800, 3)
	if b[0] != 0xBE || b[2] != 0x01 {
		t.Errorf("second trampoline bytes = % x", b)
	}
	// SigTab installed with bias applied.
	if m.SigTab[0x401001] != 0x700100 {
		t.Errorf("sigtab = %v", m.SigTab)
	}
	// .bss mapped and zero.
	f, _ := elf64.Parse(out)
	bss, _ := f.SectionByName(".bss")
	b, ok = m.Mem.ReadBytes(bss.Addr, 4)
	if !ok || b[0] != 0 {
		t.Error(".bss not mapped as zeros")
	}
}

func TestLoadBias(t *testing.T) {
	text := []byte{0xC3}
	bin, err := elf64.Build(elf64.BuildSpec{PIE: true, Text: text, Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	out := elf64.Compose(bin, 0, nil, loader.Encode(loadTestTable(t), 1, nil, elf64.TextVaddrOff))
	m := emu.NewMachine()
	const bias = PIEBase // ET_DYN loads at PIEBase
	entry, err := Load(m, out)
	if err != nil {
		t.Fatal(err)
	}
	if entry != bias+elf64.TextVaddrOff {
		t.Errorf("entry = %#x", entry)
	}
	if b, _ := m.Mem.ReadBytes(bias+0x700100, 1); b[0] != 0xDE {
		t.Error("biased trampoline missing")
	}
}

func TestLoadMapCountLimit(t *testing.T) {
	// One mapping over vm.max_map_count must be refused; five pass.
	image := func(n int) []byte {
		chunks := make([]group.Chunk, n)
		for i := range chunks {
			chunks[i] = group.Chunk{Addr: 0x700000 + uint64(i)*0x1000 + uint64(i%0x1000), Data: []byte{1}}
		}
		res, err := group.Build(chunks, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Mappings) != n {
			t.Fatalf("%d chunks on distinct pages gave %d mappings", n, len(res.Mappings))
		}
		bin, _ := elf64.Build(elf64.BuildSpec{Text: []byte{0xC3}, Data: []byte("x")})
		return elf64.Compose(bin, 0, nil, loader.Encode(res, 1, nil, 0))
	}
	m := emu.NewMachine()
	if _, err := Load(m, image(loader.MapCountLimit+1)); err == nil {
		t.Fatal("mapping limit not enforced")
	}
	if _, err := Load(m, image(5)); err != nil {
		t.Fatalf("5 mappings should pass: %v", err)
	}
}

func TestLoadUnpatchedBinary(t *testing.T) {
	bin, _ := elf64.Build(elf64.BuildSpec{Text: []byte{0xC3}, Data: []byte("x")})
	m := emu.NewMachine()
	if _, err := Load(m, bin); err != nil {
		t.Fatal(err)
	}
	if len(m.SigTab) != 0 {
		t.Error("phantom sigtab")
	}
}

// TestTableCodecDependencies keeps the appended-table codec a leaf: a
// checker that decodes an output's table must not pull in the emulator,
// the ELF layer or the patcher. The non-test files of internal/loader
// may import only internal/group from this module, and those of
// internal/group nothing from it.
func TestTableCodecDependencies(t *testing.T) {
	allowed := map[string]map[string]bool{
		"internal/loader": {"e9patch/internal/group": true},
		"internal/group":  {},
	}
	for dir, allow := range allowed {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if (path == "e9patch" || strings.HasPrefix(path, "e9patch/")) && !allow[path] {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
		if parsed == 0 {
			t.Errorf("%s: no non-test Go files", dir)
		}
	}
}
