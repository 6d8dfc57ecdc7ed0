package e9patch

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/lang"
	"e9patch/internal/match"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestMatchEquivalence: the built-in selectors are the spec-language
// programs "branch" (A1), "heapwrite" (A2) and "true" (L3), index for
// index. It checks a hand-built program with known sites, then every
// workload profile under every recovery mode at the 16 KB of text at
// which internal/lang's TestSelectorsMatchFullDecode ties those
// programs to a full decode. The built-ins are also shardable.
func TestMatchEquivalence(t *testing.T) {
	builtins := []struct {
		name string
		sel  Selector
		expr string
	}{
		{"SelectJumps", SelectJumps, "branch"},
		{"SelectHeapWrites", SelectHeapWrites, "heapwrite"},
		{"SelectAll", SelectAll, "true"},
	}
	progs := make([]func([]x86.Loc) []int, len(builtins))
	for i, b := range builtins {
		p, err := lang.CompileExpr(b.expr)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p.Selector()
		if !match.Shardable(b.sel) {
			t.Errorf("%s is not registered shardable", b.name)
		}
	}
	same := func(where string, insts []x86.Loc) {
		t.Helper()
		for i, b := range builtins {
			if got, want := b.sel(insts), progs[i](insts); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s selects %d instructions, lang %q %d", where, b.name, len(got), b.expr, len(want))
			}
		}
	}

	a := x86.NewAsm(0x400000)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX) // heap write
	a.AddRegImm64(x86.RAX, 32)
	l := a.NewLabel()
	a.Bind(l)
	a.JccShort(x86.CondE, l)                  // jcc
	a.Jmp(l)                                  // jmp
	a.MovMemReg64(x86.M(x86.RSP, 8), x86.RAX) // stack write: not A2
	a.Ret()
	res, _ := disasm.Recover(disasm.ModeLinear, a.MustFinish(), 0x400000)
	for _, c := range []struct {
		sel  Selector
		want []int
	}{{SelectJumps, []int{2, 3}}, {SelectHeapWrites, []int{0}}, {SelectAll, []int{0, 1, 2, 3, 4, 5}}} {
		if got := c.sel(res.Insts); !reflect.DeepEqual(got, c.want) {
			t.Errorf("hand-built program: selected %v, want %v", got, c.want)
		}
	}
	same("hand-built program", res.Insts)

	const textBytes = 16e3
	for _, p := range workload.AllProfiles() {
		scale := min(1, textBytes/(p.SizeMB*1e6))
		prog, err := workload.BuildStatic(p, scale)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		f, err := elf64.Parse(prog.ELF)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		text, addr, err := f.Text()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		skip := workload.DataPrefixBytes(p, scale)
		for _, mode := range disasm.Modes() {
			res, _ := disasm.Recover(mode, text[skip:], addr+skip)
			same(p.Name+"/"+string(mode), res.Insts)
		}
	}
}

// TestSelectAddressesMatchesSelectAddrs: the selector and the streaming
// call are one matcher. For unsorted, duplicate and missing addresses,
// on a PIE and a non-PIE input, with matching sequential or sharded,
// SelectAddresses selects exactly the indices Stream.SelectAddrs does.
func TestSelectAddressesMatchesSelectAddrs(t *testing.T) {
	p, err := workload.ProfileByName("git")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, kind := range []workload.Kind{workload.KindExec, workload.KindPIE} {
		prog, err := workload.BuildStaticMix(p, 64e3/(p.SizeMB*1e6), kind, workload.MixFor(p))
		if err != nil {
			t.Fatal(err)
		}
		probe, err := NewStream(ctx, prog.ELF, Config{})
		if err != nil {
			t.Fatal(err)
		}
		insts := probe.st.insts
		if len(insts) < 2*4096 {
			t.Fatalf("kind %d: %d instructions, too few for matching to shard", kind, len(insts))
		}
		var addrs []uint64 // descending, so unsorted for the matcher
		for i := len(insts) - 1; i >= 0; i -= 97 {
			addrs = append(addrs, insts[i].Addr)
		}
		addrs = append(addrs, addrs[:20]...) // duplicates
		last := insts[len(insts)-1]
		addrs = append(addrs, insts[0].Addr-1, last.Addr+uint64(last.Len)+64) // misses, either side
		for _, in := range insts {
			if in.Len > 1 {
				addrs = append(addrs, in.Addr+1) // a miss inside an instruction
				break
			}
		}
		want := (len(insts) + 96) / 97
		if got := SelectAddresses(addrs...)(insts); len(got) != want || !slices.IsSorted(got) || len(slices.Compact(got)) != want {
			t.Errorf("kind %d: SelectAddresses returned %d indices, want %d, ascending and distinct", kind, len(got), want)
		}
		for _, width := range []int{1, 8} {
			bySelector, err := NewStream(ctx, prog.ELF, Config{Select: SelectAddresses(addrs...), Parallelism: width})
			if err != nil {
				t.Fatal(err)
			}
			byStream, err := NewStream(ctx, prog.ELF, Config{Parallelism: width})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := byStream.SelectAddrs(addrs...); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(bySelector.sel, byStream.sel) || bySelector.nsel != want {
				t.Errorf("kind %d, Parallelism %d: SelectAddresses selected %d sites, Stream.SelectAddrs %d, want the same %d",
					kind, width, bySelector.nsel, byStream.nsel, want)
			}
		}
	}
}
