// Command e9dump inspects an (original or rewritten) x86-64 ELF
// binary: sections, instruction-recovery statistics under any disasm
// mode (-disasm linear|superset|superset-cet, with -occupancy for the
// superset modes' per-byte coverage summary), patch-point counts, and —
// for rewritten binaries — the appended trampoline blob.
//
// With -spec it instead inspects a spec-language file (internal/lang):
// the typed AST of each match/exclude expression and the patch
// directive.
//
// With -plan it prints a serialized patch plan (e9tool -emit-plan or a
// plan-delta response) as indented JSON: the one way to read what the
// binary form holds.
package main

import (
	"flag"
	"fmt"
	"os"

	"e9patch"
	"e9patch/internal/disasm"
	"e9patch/internal/elf64"
	"e9patch/internal/lang"
	"e9patch/internal/loader"
	"e9patch/internal/x86"
)

func main() {
	var (
		n       = flag.Int("n", 0, "disassemble and print the first N instructions")
		skip    = flag.Uint64("skip", 0, "skip the first N bytes of .text")
		disasmF = flag.String("disasm", "", "instruction recovery mode: linear (default) | superset | superset-cet")
		occup   = flag.Bool("occupancy", false, "print the per-byte occupancy summary (superset modes only)")
		spec    = flag.String("spec", "", "dump the typed AST of a spec file instead of a binary")
		planF   = flag.String("plan", "", "print a serialized patch plan as JSON instead of inspecting a binary")
	)
	flag.Parse()
	if *planF != "" {
		if flag.NArg() != 0 || *spec != "" {
			fmt.Fprintln(os.Stderr, "usage: e9dump -plan FILE")
			os.Exit(2)
		}
		data, err := os.ReadFile(*planF)
		if err != nil {
			fatal(err)
		}
		p, err := e9patch.DecodePlan(data)
		if err != nil {
			fatal(err)
		}
		j, err := p.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(j)
		return
	}
	if *spec != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: e9dump -spec FILE")
			os.Exit(2)
		}
		text, err := os.ReadFile(*spec)
		if err != nil {
			fatal(err)
		}
		sp, err := lang.ParseSpec(string(text))
		if err != nil {
			fatal(err)
		}
		fmt.Print(sp.Dump())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: e9dump [-n count] BINARY")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	f, err := elf64.Parse(data)
	if err != nil {
		fatal(err)
	}

	kind := "EXEC (fixed address)"
	if f.IsDSO() {
		kind = "DYN (shared object, no entry point)"
	} else if f.IsPIE() {
		kind = "DYN (position independent)"
	}
	fmt.Printf("type:    %s\n", kind)
	fmt.Printf("entry:   %#x\n", f.Header.Entry)
	lo, hi := f.LoadBounds()
	fmt.Printf("load:    [%#x, %#x) (%d bytes mapped)\n", lo, hi, hi-lo)
	for _, s := range f.Sections {
		if s.Name == "" {
			continue
		}
		fmt.Printf("section: %-12s addr=%#-12x size=%d\n", s.Name, s.Addr, s.Size)
	}

	text, addr, err := f.Text()
	if err != nil {
		fatal(err)
	}
	if *skip > uint64(len(text)) {
		fatal(fmt.Errorf("skip beyond .text"))
	}
	mode, err := disasm.ParseMode(*disasmF)
	if err != nil {
		fatal(err)
	}
	if *occup && mode == disasm.ModeLinear {
		fatal(fmt.Errorf("-occupancy needs a superset mode (-disasm superset or superset-cet)"))
	}

	fmt.Printf("\ndisasm mode:       %s\n", mode)
	code, codeAddr := text[*skip:], addr+*skip
	res, stats := disasm.Recover(mode, code, codeAddr)
	if stats != nil {
		if mode == disasm.ModeSupersetCET {
			fmt.Printf("superset:          %d decoded, %d valid, %d kept from %d anchors (%.1f%% pruned)\n",
				stats.Decoded, stats.Valid, stats.Kept, stats.Anchors, pct(stats.Decoded-stats.Kept, stats.Decoded))
		} else {
			fmt.Printf("superset:          %d decoded, %d valid (%.1f%% pruned)\n",
				stats.Decoded, stats.Valid, pct(stats.Decoded-stats.Kept, stats.Decoded))
		}
	}
	if *occup {
		// Per-byte occupancy: how many recovered instructions cover each
		// text byte. Zero-occupancy bytes are classified data or
		// padding; depth >1 marks overlapping candidates that the
		// patcher's locked-byte discipline arbitrates at patch time.
		occ := make([]int, len(code))
		for _, in := range res.Insts {
			off := int(in.Addr - codeAddr)
			for b := off; b < off+int(in.Len); b++ {
				occ[b]++
			}
		}
		var zero, one, multi, depth int
		for _, c := range occ {
			switch {
			case c == 0:
				zero++
			case c == 1:
				one++
			default:
				multi++
			}
			depth = max(depth, c)
		}
		fmt.Printf("occupancy:         %d bytes unclaimed (%.1f%%), %d singly covered, %d overlapping (max depth %d)\n",
			zero, pct(zero, len(occ)), one, multi, depth)
	}
	jumps := e9patch.SelectJumps(res.Insts)
	writes := e9patch.SelectHeapWrites(res.Insts)
	fmt.Printf("instructions:      %d (%d undecodable bytes)\n", len(res.Insts), res.BadBytes)
	fmt.Printf("jumps (A1):        %d\n", len(jumps))
	fmt.Printf("heap writes (A2):  %d\n", len(writes))

	var hist [16]int
	for i := range res.Insts {
		hist[res.Insts[i].Len]++
	}
	fmt.Printf("length histogram: ")
	for l := 1; l <= 15; l++ {
		if hist[l] > 0 {
			fmt.Printf(" %d:%d", l, hist[l])
		}
	}
	fmt.Println()

	if blob, ok := elf64.AppendedBlob(data); ok {
		b, err := loader.Decode(blob)
		if err != nil {
			fatal(fmt.Errorf("appended blob: %w", err))
		}
		fmt.Printf("\nrewritten binary: appended blob %d bytes\n", len(blob))
		fmt.Printf("  granularity M:   %d pages (block %d bytes)\n", b.Granularity, b.BlockSize)
		fmt.Printf("  mappings:        %d\n", len(b.Mappings))
		fmt.Printf("  physical blocks: %d\n", len(b.Blocks))
		fmt.Printf("  sigtab entries:  %d (B0 int3 handlers)\n", len(b.SigTab))
	}

	var in x86.Inst
	for i := 0; i < *n && i < len(res.Insts); i++ {
		res.Insts[i].DecodeInto(&in)
		fmt.Printf("%#10x: %-24x %s\n", in.Addr, in.Bytes, in.String())
	}
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "e9dump: %v\n", err)
	os.Exit(1)
}
