// Command e9tool is the high-level front-end to the rewriter, in the
// spirit of the E9Tool companion of E9Patch: patch points are selected
// with a match expression and patched as a patch directive says, both
// in the spec language (internal/lang, DESIGN.md §10), E9Tool-style:
//
//	e9tool -M 'jcc & short' -P empty -o out.bin input.bin
//	e9tool -M 'call & indirect' -P 'call trace(addr)@trace_payload.elf' -o traced.bin input.bin
//	e9tool -spec examples/specs/syscall_trace.e9spec -o traced.bin input.bin
//
// -M takes a match expression (asm=, mnemonic=, operand registers,
// address ranges, and/or/not — see internal/lang); -P a patch spec
// (empty | counter=ADDR | contextcall=ADDR | lowfat | lowfat-trap |
// call FN(args)[@PAYLOAD]); -spec a spec file combining match/exclude/
// patch/payload directives. Payload ELFs for call patches resolve
// relative to the spec file (or the working directory for -P), or
// explicitly via -payload. -M true patches every recovered instruction.
//
// The two rewrite phases can also be driven separately:
//
//	e9tool -M 'jcc' -dry-run input.bin                           # plan, report, write nothing
//	e9tool -M 'jcc' -emit-plan plan.e9plan input.bin             # plan only, save the decisions
//	e9tool -M 'jcc' -emit-plan plan.e9plan -o out.bin input.bin  # both, from one decision
//	e9tool -apply-plan plan.e9plan -o out.bin input.bin          # replay a saved plan
//
// -verify checks the output it has written against the input with the
// independent output checker (internal/verify) and exits 1 if a check
// fails:
//
//	e9tool -M 'jcc' -verify -o out.bin input.bin
//
// A saved plan is the compact binary serialization (PatchPlan.Encode);
// `e9dump -plan plan.e9plan` prints it as JSON. -backend PATH hands the
// rewrite to an e9patch backend over JSON-RPC (-M with -P empty or
// counter=ADDR, which is what the protocol carries).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"e9patch"
	"e9patch/internal/elf64"
	"e9patch/internal/lang"
	"e9patch/internal/patch"
	"e9patch/internal/verify"
)

func main() {
	var (
		exprM     = flag.String("M", "", "spec-language match expression (e.g. 'call & indirect', 'asm=\"mov.*\"')")
		patchP    = flag.String("P", "", "spec-language patch: empty | counter=ADDR | contextcall=ADDR | lowfat | lowfat-trap | 'call FN(args)[@PAYLOAD]'")
		specFile  = flag.String("spec", "", "spec file with match/exclude/patch/payload directives (exclusive with -M/-P)")
		payloadF  = flag.String("payload", "", "payload ELF for call patches (overrides the spec's @reference)")
		out       = flag.String("o", "", "output file (required unless -dry-run or -emit-plan)")
		gran      = flag.Int("granularity", 1, "page grouping granularity (-1 disables)")
		b0        = flag.Bool("b0-fallback", false, "int3 fallback for unpatchable locations")
		skip      = flag.Uint64("skip", 0, "skip first N bytes of .text")
		disasmF   = flag.String("disasm", "", "instruction recovery mode: linear (default) | superset | superset-cet")
		dryRun    = flag.Bool("dry-run", false, "plan only: report tactics and footprint, write nothing")
		emitPlan  = flag.String("emit-plan", "", "write the serialized patch plan (binary; e9dump -plan prints it) to FILE; with -o, also the output of the same decision")
		applyPlan = flag.String("apply-plan", "", "skip planning: replay the serialized patch plan in FILE (as written by -emit-plan)")
		backend   = flag.String("backend", "", "drive the e9patch backend at PATH over JSON-RPC instead of rewriting in-process (-M with -P empty or counter=ADDR)")
		verifyF   = flag.Bool("verify", false, "check the written output against the input with the independent output checker; exit 1 if a check fails")

		// Hostile-input hardening: resource limits for rewriting
		// untrusted binaries (0 disables a bound).
		maxInputMB   = flag.Int("max-input-mb", 0, "maximum input size in MiB (0: unlimited)")
		maxTextMB    = flag.Int("max-text-mb", 0, "maximum .text section size in MiB (0: unlimited)")
		maxSites     = flag.Int("max-sites", 0, "maximum patch sites (0: unlimited)")
		maxTrampMB   = flag.Int("max-tramp-mb", 0, "maximum emitted trampoline bytes in MiB (0: unlimited)")
		phaseTimeout = flag.Duration("phase-timeout", 0, "per-phase (disassembly, patching) deadline (0: unlimited)")
	)
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	plans := *dryRun || *emitPlan != ""
	usageErr := func(msg string) {
		fmt.Fprintln(os.Stderr, "e9tool: "+msg)
		fmt.Fprintln(os.Stderr, "usage: e9tool -M EXPR [-P PATCH] [-emit-plan PLAN] [-o OUT | -dry-run] INPUT")
		fmt.Fprintln(os.Stderr, "       e9tool -spec FILE [-payload ELF] -o OUT INPUT")
		fmt.Fprintln(os.Stderr, "       e9tool -apply-plan PLAN -o OUT INPUT")
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case flag.NArg() != 1:
		usageErr("exactly one input binary expected")
	case *applyPlan != "":
		if plans {
			usageErr("-apply-plan is exclusive with -dry-run/-emit-plan")
		}
		// A plan records its recovery mode, selection, patches and layout;
		// a flag that would choose them again is a mistake, not a no-op.
		for _, name := range []string{"M", "P", "spec", "payload", "disasm", "skip", "granularity", "b0-fallback"} {
			if given[name] {
				usageErr("-apply-plan replays what the plan recorded; -" + name + " is not applicable (pass it to -emit-plan)")
			}
		}
		if *out == "" {
			usageErr("-apply-plan needs -o")
		}
	case *specFile != "" && (*exprM != "" || *patchP != ""):
		usageErr("-spec is exclusive with -M/-P")
	case *specFile == "" && *exprM == "":
		usageErr("-M (or a -spec file) is required")
	case *out == "" && !plans:
		usageErr("-o is required (or use -dry-run/-emit-plan)")
	case *dryRun && *out != "":
		usageErr("-dry-run writes nothing; -o is not applicable (use -emit-plan with -o)")
	case *verifyF && *out == "":
		usageErr("-verify checks a written output; -dry-run, and -emit-plan without -o, write none")
	}
	if _, err := e9patch.ParseDisasmMode(*disasmF); err != nil {
		usageErr(err.Error())
	}

	if *backend != "" {
		// The backend split carries exactly what the protocol can
		// express: a match expression, which the backend compiles, and the
		// counter option. Spec files, payloads and the plan phases lower
		// to in-process state that cannot cross a pipe.
		switch {
		case *specFile != "":
			usageErr("-backend takes -M and -P, not -spec")
		case plans || *applyPlan != "":
			usageErr("-backend is exclusive with -dry-run/-emit-plan/-apply-plan")
		case *maxInputMB != 0 || *maxTextMB != 0 || *maxSites != 0 || *maxTrampMB != 0 || *phaseTimeout != 0:
			usageErr("resource limits apply to the backend process, not the frontend; set them on the backend side")
		}
		sp, err := lang.FromParts(*exprM, *patchP)
		if err != nil {
			fatal(err)
		}
		counter := uint64(0)
		switch sp.Patch.Kind {
		case lang.PatchEmpty:
		case lang.PatchCounter:
			counter = sp.Patch.Addr
		default:
			usageErr("-backend carries -P empty or counter=ADDR only, not -P " + sp.Patch.String())
		}
		if err := runBackend(*backend, flag.Arg(0), backendOptions{
			match:       *exprM,
			output:      *out,
			granularity: *gran,
			skipPrefix:  *skip,
			disasm:      *disasmF,
			b0Fallback:  *b0,
			counter:     counter,
		}); err != nil {
			fatal(err)
		}
		if *verifyF {
			input, err := os.ReadFile(flag.Arg(0))
			if err != nil {
				fatal(err)
			}
			verifyOutput(input, *out, verify.Config{Disasm: e9patch.DisasmMode(*disasmF), SkipPrefix: *skip})
		}
		return
	}

	// The input is a read-only mapping where the platform has one: the
	// pipeline only ever reads it, so a browser-class binary is paged in
	// by the kernel and never copied onto the Go heap. The output goes to
	// a temporary file that is renamed into place (elf64.WriteOutput), so
	// -o may name the input file, and its unchanged input bytes are
	// copied from the input file, not out of the mapping.
	in, err := elf64.OpenInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer in.Close()
	input := in.Data

	if *applyPlan != "" {
		data, err := os.ReadFile(*applyPlan)
		if err != nil {
			fatal(err)
		}
		p, err := e9patch.DecodePlan(data)
		if err != nil {
			fatal(err)
		}
		var res *e9patch.Result
		if err := elf64.WriteOutput(*out, in, func(w io.Writer) (err error) {
			res, err = e9patch.ApplyTo(context.Background(), w, input, p)
			return err
		}); err != nil {
			fatal(err)
		}
		report(res)
		if *verifyF {
			verifyOutput(input, *out, verifyConfig(res, p.SkipPrefix))
		}
		return
	}

	cfg := e9patch.Config{
		Granularity: *gran,
		SkipPrefix:  *skip,
		Disasm:      e9patch.DisasmMode(*disasmF),
		Patch:       patch.Options{B0Fallback: *b0},
		Limits: e9patch.Limits{
			MaxInputBytes:      int64(*maxInputMB) << 20,
			MaxTextBytes:       int64(*maxTextMB) << 20,
			MaxPatchSites:      *maxSites,
			MaxTrampolineBytes: int64(*maxTrampMB) << 20,
			PhaseTimeout:       *phaseTimeout,
		},
	}

	// Spec-language path: parse (file or -M/-P), resolve the payload
	// reference, and lower to pipeline configuration.
	var sp *lang.Spec
	payloadDir := "."
	if *specFile != "" {
		text, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		if sp, err = lang.ParseSpec(string(text)); err != nil {
			fatal(err)
		}
		payloadDir = filepath.Dir(*specFile)
	} else if sp, err = lang.FromParts(*exprM, *patchP); err != nil {
		fatal(err)
	}
	var payload []byte
	ref := *payloadF
	if ref == "" && sp.PayloadRef != "" {
		ref = filepath.Join(payloadDir, sp.PayloadRef)
	}
	if ref != "" {
		if payload, err = os.ReadFile(ref); err != nil {
			fatal(err)
		}
	}
	br, err := sp.Build(payload)
	if err != nil {
		fatal(err)
	}
	cfg.Select = br.Select
	cfg.Template = br.Template
	cfg.Inject = br.Inject
	cfg.ReserveVA = append(cfg.ReserveVA, br.ReserveVA...)

	// One session decides once: -dry-run and -emit-plan read the decision
	// as a plan, -o as the output. A plain rewrite never plans, which
	// would hash the whole input.
	ctx := context.Background()
	s, err := e9patch.NewStream(ctx, input, cfg)
	if err != nil {
		fatal(err)
	}
	if plans {
		p, err := s.Plan(ctx)
		if err != nil {
			fatal(err)
		}
		if *emitPlan != "" {
			enc, err := p.Encode()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*emitPlan, enc, 0o644); err != nil {
				fatal(err)
			}
		}
		planReport(p)
	}
	if *out == "" {
		return
	}

	// The rewrite streams: head and tail of the output are copied from the
	// input file, so no image of the output is ever built in this process.
	var res *e9patch.Result
	if err := elf64.WriteOutput(*out, in, func(w io.Writer) (err error) {
		res, err = s.FinishTo(ctx, w)
		return err
	}); err != nil {
		fatal(err)
	}
	report(res)
	if *verifyF {
		verifyOutput(input, *out, verifyConfig(res, cfg.SkipPrefix))
	}
}

// verifyConfig is what the output checker needs of a rewrite or an
// applied plan that skipped skip bytes of .text: its recovery and the
// images it mapped, moved from runtime to link addresses.
func verifyConfig(res *e9patch.Result, skip uint64) verify.Config {
	cfg := verify.Config{Disasm: e9patch.DisasmMode(res.Disasm), SkipPrefix: skip}
	for _, inj := range res.Injections {
		cfg.Images = append(cfg.Images, [2]uint64{inj.Addr - res.Bias, inj.Addr - res.Bias + uint64(len(inj.Data))})
	}
	return cfg
}

// verifyOutput checks the output written to path against input and
// exits 1 with the failures if a check fails.
func verifyOutput(input []byte, path string, cfg verify.Config) {
	output, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	rep, err := verify.Check(input, output, cfg)
	if err != nil {
		fatal(err)
	}
	if err := rep.Err(); err != nil {
		fatal(err)
	}
	checks := "a, b, d and e"
	if rep.Partial {
		checks = "e and the table's rows (overlapping universe)"
	}
	fmt.Printf("verify: ok (checks %s): %d of %d instructions patched, %d table rows, %d trampoline bytes reached\n",
		checks, rep.Patched, rep.Boundaries, rep.Rows, rep.Reached)
}

// report prints the post-rewrite summary.
func report(res *e9patch.Result) {
	s := res.Stats
	if res.Disasm != "" && res.Disasm != "linear" {
		if rec := res.Recovery; rec != nil {
			fmt.Printf("disasm: %s: %d decoded, %d valid, %d kept (%.1f%% pruned)\n",
				res.Disasm, rec.Decoded, rec.Valid, rec.Kept, 100*rec.PruneRatio())
		} else {
			fmt.Printf("disasm: %s\n", res.Disasm)
		}
	}
	fmt.Printf("matched %d of %d instructions; patched %d (%.2f%%); size %.2f%%\n",
		s.Total, res.Insts, s.Patched(), s.SuccPercent(), res.SizePercent())
	fmt.Printf("tactics: B1=%d B2=%d T1=%d T2=%d T3=%d B0=%d failed=%d\n",
		s.ByTactic[patch.TacticB1], s.ByTactic[patch.TacticB2],
		s.ByTactic[patch.TacticT1], s.ByTactic[patch.TacticT2],
		s.ByTactic[patch.TacticT3], s.ByTactic[patch.TacticB0], s.Failed)
}

// planReport prints what a plan would do without materializing it.
func planReport(p *e9patch.PatchPlan) {
	counts := p.TacticCounts()
	patched := 0
	names := make([]string, 0, len(counts))
	for name, n := range counts {
		if name != "none" {
			patched += n
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("plan: %d of %d matched instructions patchable; %d trampolines; %d text bytes modified\n",
		patched, len(p.Sites), p.TrampolineCount(), p.PatchedBytes())
	parts := make([]string, 0, len(names)+1)
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, counts[name]))
	}
	parts = append(parts, fmt.Sprintf("failed=%d", counts["none"]))
	fmt.Printf("tactics: %s\n", strings.Join(parts, " "))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "e9tool: %v\n", err)
	os.Exit(1)
}
