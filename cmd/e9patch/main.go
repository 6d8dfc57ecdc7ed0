// Command e9patch statically rewrites an x86-64 ELF binary without
// control-flow recovery, inserting trampolines for every selected
// instruction via the B1/B2/T1/T2/T3 tactics.
//
// One-shot usage:
//
//	e9patch -app jumps -o patched.bin input.bin
//
// Applications: jumps (A1), heapwrites (A2), all (every instruction).
//
// Backend usage: with -backend, or with no input argument and stdin
// connected to a pipe, e9patch reads a line-delimited JSON-RPC message
// stream from stdin (option* binary (patch|reserve)* emit — see
// internal/rpc and DESIGN.md §12) and writes responses to stdout. This
// is the E9Patch frontend/backend split: a frontend such as e9tool
// -backend drives the rewrite over the pipe, and the backend performs
// no analysis of its own:
//
//	e9tool -backend e9patch -M 'jcc' -o out.bin input.bin
//	e9patch < session.rpc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"e9patch"
	"e9patch/internal/elf64"
	"e9patch/internal/patch"
	"e9patch/internal/rpc"
	"e9patch/internal/trampoline"
)

func main() {
	var (
		app     = flag.String("app", "jumps", "patch-point selector: jumps | heapwrites | all")
		out     = flag.String("o", "", "output file (required in one-shot mode)")
		gran    = flag.Int("M", 1, "physical page grouping granularity in pages (-1 disables grouping)")
		noT1    = flag.Bool("no-t1", false, "disable tactic T1 (padded jumps)")
		noT2    = flag.Bool("no-t2", false, "disable tactic T2 (successor eviction)")
		noT3    = flag.Bool("no-t3", false, "disable tactic T3 (neighbour eviction)")
		b0      = flag.Bool("b0-fallback", false, "fall back to int3/SIGTRAP when all tactics fail")
		skip    = flag.Uint64("skip", 0, "skip the first N bytes of .text (data-in-text workaround)")
		counter = flag.Uint64("counter", 0, "instead of empty instrumentation, increment the 8-byte counter at this address")
		backend = flag.Bool("backend", false, "backend mode: read a JSON-RPC message stream from stdin")
	)
	flag.Parse()

	base := e9patch.Config{
		Granularity: *gran,
		SkipPrefix:  *skip,
		Patch: patch.Options{
			DisableT1:  *noT1,
			DisableT2:  *noT2,
			DisableT3:  *noT3,
			B0Fallback: *b0,
		},
	}
	if *counter != 0 {
		base.Template = trampoline.Counter{Addr: *counter}
	}

	// Backend mode: explicit -backend, or no input argument with stdin
	// on a pipe/file (a frontend at the other end). A bare `e9patch` at
	// a terminal prints usage instead of waiting silently on stdin.
	if *backend || (flag.NArg() == 0 && stdinStreamed()) {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "e9patch: -backend takes no input argument (the stream's binary message names the input)")
			os.Exit(2)
		}
		if err := rpc.Serve(context.Background(), os.Stdin, os.Stdout, rpc.Options{
			AllowPath: true,
			Base:      base,
		}); err != nil {
			fatal(err)
		}
		return
	}

	if flag.NArg() != 1 || *out == "" {
		usage()
		os.Exit(2)
	}

	input, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	cfg := base
	switch *app {
	case "jumps":
		cfg.Select = e9patch.SelectJumps
	case "heapwrites":
		cfg.Select = e9patch.SelectHeapWrites
	case "all":
		cfg.Select = e9patch.SelectAll
	default:
		fatal(fmt.Errorf("unknown application %q", *app))
	}

	res, err := e9patch.Rewrite(input, cfg)
	if err != nil {
		fatal(err)
	}
	if err := elf64.WriteOutputBytes(*out, res.Output); err != nil {
		fatal(err)
	}

	s := res.Stats
	fmt.Printf("instructions:  %d (%d undecodable bytes skipped)\n", res.Insts, res.BadBytes)
	fmt.Printf("patch points:  %d\n", s.Total)
	fmt.Printf("  B1 (direct jump):        %6d (%.2f%%)\n", s.ByTactic[patch.TacticB1], s.Percent(s.ByTactic[patch.TacticB1]))
	fmt.Printf("  B2 (punned jump):        %6d (%.2f%%)\n", s.ByTactic[patch.TacticB2], s.Percent(s.ByTactic[patch.TacticB2]))
	fmt.Printf("  T1 (padded jump):        %6d (%.2f%%)\n", s.ByTactic[patch.TacticT1], s.Percent(s.ByTactic[patch.TacticT1]))
	fmt.Printf("  T2 (successor eviction): %6d (%.2f%%)\n", s.ByTactic[patch.TacticT2], s.Percent(s.ByTactic[patch.TacticT2]))
	fmt.Printf("  T3 (neighbour eviction): %6d (%.2f%%)\n", s.ByTactic[patch.TacticT3], s.Percent(s.ByTactic[patch.TacticT3]))
	if *b0 {
		fmt.Printf("  B0 (int3 fallback):      %6d (%.2f%%)\n", s.ByTactic[patch.TacticB0], s.Percent(s.ByTactic[patch.TacticB0]))
	}
	fmt.Printf("  failed:                  %6d (%.2f%%)\n", s.Failed, s.Percent(s.Failed))
	fmt.Printf("coverage:      %.2f%%\n", s.SuccPercent())
	fmt.Printf("trampolines:   %d (%d bytes payload)\n", res.Trampolines, res.Group.TrampolineBytes)
	fmt.Printf("phys blocks:   %d merged from %d virtual blocks (%d mappings)\n",
		res.Group.PhysBlocks, res.Group.VirtBlocks, res.Mappings)
	fmt.Printf("file size:     %d -> %d bytes (%.2f%%)\n", res.InputSize, res.OutputSize, res.SizePercent())
}

// stdinStreamed reports whether stdin is a pipe or regular file rather
// than an interactive terminal or the null device — the signal that a
// frontend is feeding a message stream.
func stdinStreamed() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice == 0
}

// usage explains both modes; it is what a bare `e9patch` prints instead
// of exiting silently or blocking on a terminal.
func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  one-shot:  e9patch -app jumps|heapwrites|all -o OUT INPUT
  backend:   e9patch -backend < MESSAGE-STREAM
             (or pipe a JSON-RPC stream to stdin with no INPUT argument)

The backend consumes line-delimited JSON-RPC messages:
  option* binary (patch|reserve)* emit
See DESIGN.md §12 for the message grammar.

Flags:`)
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "e9patch: %v\n", err)
	os.Exit(1)
}
