// Package e9patch is a static binary rewriter for x86-64 ELF binaries
// that needs no control-flow recovery, reproducing the system from
// "Binary Rewriting without Control Flow Recovery" (Duck, Gao,
// Roychoudhury — PLDI 2020).
//
// The rewriter replaces selected instructions with (possibly punned,
// padded, or evicted) jumps to trampolines, strictly in place,
// preserving the set of jump targets. New content — trampoline pages
// merged by physical page grouping, the mmap table, and the SIGTRAP
// dispatch table — is appended at end-of-file without moving a byte of
// the original binary.
//
// Typical use:
//
//	res, err := e9patch.Rewrite(binary, e9patch.Config{
//	        Select:   e9patch.SelectHeapWrites,
//	        Template: trampoline.Empty{},
//	})
package e9patch

import (
	"context"
	"fmt"
	"io"
	"slices"

	"e9patch/internal/disasm"
	"e9patch/internal/e9err"
	"e9patch/internal/elf64"
	"e9patch/internal/emu"
	"e9patch/internal/group"
	"e9patch/internal/lang"
	"e9patch/internal/loader"
	"e9patch/internal/match"
	"e9patch/internal/patch"
	"e9patch/internal/plan"
	"e9patch/internal/trampoline"
	"e9patch/internal/work"
	"e9patch/internal/x86"
)

// PIEBase is the deterministic load bias applied to ET_DYN binaries
// (the address the Linux loader picks for PIE executables when ASLR is
// disabled; the emulated loader is deterministic by design).
const PIEBase uint64 = 0x5555_5555_4000

// loadBias is the load bias of f: PIEBase for ET_DYN, zero for
// ET_EXEC. It is added to every file virtual address.
func loadBias(f *elf64.File) uint64 {
	if f.IsPIE() {
		return PIEBase
	}
	return 0
}

// Pool is a bounded worker pool shared across rewrites: when several
// concurrent rewrites are handed the same pool, the sum of their
// helper goroutines never exceeds the pool size, no matter how many
// rewrites run at once.
type Pool = work.Pool

// NewPool creates a worker pool with n slots (n <= 0: GOMAXPROCS).
func NewPool(n int) *Pool { return work.NewPool(n) }

// DisasmMode selects the instruction-recovery frontend the rewriter
// runs before matching. Every mode feeds the same downstream pipeline;
// they differ only in which candidate instructions they recover.
type DisasmMode = disasm.Mode

// The available recovery frontends.
const (
	// DisasmLinear is the classic linear sweep (the default; the zero
	// value of Config.Disasm selects it).
	DisasmLinear = disasm.ModeLinear
	// DisasmSuperset decodes at every byte offset and keeps the
	// refined superset — for binaries whose instruction boundaries are
	// unknown (stripped, or with data interleaved in text).
	DisasmSuperset = disasm.ModeSuperset
	// DisasmSupersetCET prunes the superset to the forward closure of
	// endbr64 landing pads, classifying reachable code on CET-enabled
	// binaries without control-flow recovery.
	DisasmSupersetCET = disasm.ModeSupersetCET
)

// ParseDisasmMode validates a mode name from a flag or wire protocol
// ("" selects DisasmLinear).
func ParseDisasmMode(s string) (DisasmMode, error) { return disasm.ParseMode(s) }

// DisasmStats describes what a superset-family frontend recovered;
// see disasm.SupersetStats.
type DisasmStats = disasm.SupersetStats

// Selector chooses patch locations among the recovered instructions and
// returns their indices. insts holds one compact record per instruction
// (address, length, class attributes, bytes: see x86.Loc); a selector
// that needs an operand decodes the instruction it is looking at with
// insts[i].DecodeInto.
type Selector func(insts []x86.Loc) []int

func init() {
	// The built-in selectors are all per-instruction predicates, so
	// matching shards them; a custom Selector is one sequential call.
	match.RegisterShardable(SelectJumps)
	match.RegisterShardable(SelectHeapWrites)
	match.RegisterShardable(SelectAll)
}

// SelectJumps returns the indices of all jmp/jcc instructions: the
// paper's application A1 (a control-flow-free analogue of basic-block
// counting).
func SelectJumps(insts []x86.Loc) []int {
	var out []int
	for i := range insts {
		if in := &insts[i]; in.IsJmp() || in.IsJcc() {
			out = append(out, i)
		}
	}
	return out
}

// SelectHeapWrites returns the indices of all instructions that may
// write through a heap pointer (memory-destination operands excluding
// %rsp-based and %rip-relative): the paper's application A2. Only the
// instructions whose opcode writes its operand at all are decoded.
func SelectHeapWrites(insts []x86.Loc) []int {
	var out []int
	var inst x86.Inst
	for i := range insts {
		if !insts[i].MayWriteMem() {
			continue
		}
		if insts[i].DecodeInto(&inst); inst.IsHeapWrite() {
			out = append(out, i)
		}
	}
	return out
}

// SelectAll returns every instruction index (the stress case for the
// paper's limitation L3).
func SelectAll(insts []x86.Loc) []int {
	out := make([]int, len(insts))
	for i := range out {
		out[i] = i
	}
	return out
}

// SelectAddresses selects the instructions starting at exactly the
// given virtual addresses (runtime coordinates, i.e. including PIEBase
// for PIE binaries) — the binary-patching use case, where the patch
// targets a handful of known locations. It matches as Stream.SelectAddrs
// does, over a sorted and deduplicated copy of addrs, so the indices
// come out ascending and once each.
func SelectAddresses(addrs ...uint64) Selector {
	want := slices.Clone(addrs)
	slices.Sort(want)
	want = slices.Compact(want)
	sel := func(insts []x86.Loc) []int { return indicesAt(insts, want) }
	match.RegisterShardable(sel)
	return sel
}

// SelectMatch compiles an E9Tool-style match expression into a
// selector, e.g. "jcc & short", "heapwrite | call",
// "mnemonic=mov & !memwrite". The grammar is the spec language's
// (internal/lang, DESIGN.md §10); a malformed expression is ErrBadSpec
// with its line:column.
func SelectMatch(expr string) (Selector, error) {
	p, err := lang.CompileExpr(expr)
	if err != nil {
		return nil, err
	}
	return p.Selector(), nil
}

// Template builds trampoline code for displaced instructions; see the
// trampoline package for the built-in templates (Empty, Counter,
// ContextCall, Raw, Call) and the lowfat package for the hardening check.
type Template = trampoline.Template

// Injection is one extra memory image mapped into the rewritten
// binary's address space at load time, in runtime coordinates — how
// spec-language call patches ship their payload ELF segments. The
// pipeline validates that injections never overlap the input's own
// segments (page-rounded) or each other, and reserves their pages so
// no trampoline lands inside them.
type Injection = plan.Injection

// RawTemplate adapts a code-emitting callback into a trampoline
// template, for arbitrary binary patches (the paper's Example 3.1).
// The callback receives the displaced instruction and the resume
// address (its original successor) and emits the full patch body, which
// the patcher leaves exactly as emitted.
func RawTemplate(code func(a *x86.Asm, inst *x86.Inst, resume uint64) error) Template {
	return trampoline.Raw{Code: code}
}

// Config controls a rewrite.
type Config struct {
	// Select picks the patch locations (required).
	Select Selector
	// Template builds the patch trampolines (default: empty
	// instrumentation that re-executes the displaced instruction).
	Template trampoline.Template
	// Patch carries tactic switches (DisableT1/T2/T3, B0Fallback, …).
	// Its Template field is overridden by Template above, and its
	// Cancel and TrampolineBudget fields by the rewrite's context and
	// Limits.MaxTrampolineBytes: Limits is the one trampoline budget.
	Patch patch.Options
	// Granularity is the physical-page-grouping block size in pages
	// (default 1 = most aggressive; -1 disables grouping entirely,
	// emitting a naïve one-to-one physical image). Values below -1 or
	// above MaxGranularity are rejected as ErrUnsupportedBinary.
	Granularity int
	// ReserveVA lists extra [lo, hi) ranges trampolines must avoid
	// (e.g. runtime-call addresses).
	ReserveVA [][2]uint64
	// Inject lists extra memory images to map into the output binary
	// (payload ELF segments for spec-language call patches). Addresses
	// are runtime coordinates; pages are reserved against trampoline
	// placement and recorded in the PatchPlan.
	Inject []Injection
	// SkipPrefix disassembles only after the first SkipPrefix bytes of
	// .text (the paper's ChromeMain workaround for data-in-text).
	SkipPrefix uint64
	// Disasm selects the instruction-recovery frontend (DisasmLinear,
	// DisasmSuperset, DisasmSupersetCET; the zero value is
	// DisasmLinear). The recovered set is the instruction universe
	// selectors match over and plans are bound to: a PatchPlan records
	// the mode plus a digest of the recovered set, and Apply rejects a
	// plan replayed under a different universe.
	Disasm DisasmMode
	// Parallelism bounds the worker goroutines used by the sharded
	// disassembly and matching phases (default: GOMAXPROCS; 1 runs
	// everything sequentially). Patching is one sequential S1 pass at
	// every value. The output is byte-identical for every value —
	// parallelism only changes scheduling, never placement decisions.
	Parallelism int
	// Pool, when non-nil, is a shared bounded worker pool: concurrent
	// rewrites handed the same pool never exceed its size in total
	// helper goroutines, even while each also shards internally.
	Pool *Pool
	// Limits bounds the resources this rewrite may consume (input and
	// text size, patch sites, trampoline bytes, per-phase deadlines).
	// The zero value disables every bound; violations surface as
	// ErrResourceLimit.
	Limits Limits
}

// Result is the outcome of a rewrite.
type Result struct {
	// Output is the rewritten binary (original bytes + appended blob).
	Output []byte
	// Stats are the per-tactic patching statistics (Table 1).
	Stats patch.Stats
	// Group reports the physical page grouping outcome.
	Group group.Stats
	// Mappings is the number of load-time mmap calls required.
	Mappings int
	// InputSize and OutputSize are the file sizes in bytes.
	InputSize, OutputSize int
	// Insts is the number of recovered instructions; BadBytes the count
	// of undecodable bytes (offsets, for the superset modes) the
	// frontend skipped.
	Insts, BadBytes int
	// Disasm names the instruction-recovery mode the rewrite ran with
	// ("linear", "superset" or "superset-cet").
	Disasm string
	// Recovery carries the superset frontend's decode/prune statistics.
	// It is nil for linear mode and for ApplyTrusted, which replays
	// decisions without re-disassembling.
	Recovery *DisasmStats
	// Bias is the load bias used during patching (PIEBase for PIE).
	Bias uint64
	// Trampolines is the number of trampolines emitted.
	Trampolines int
	// Injections are the memory images the output maps (payload
	// segments and argument tables), in runtime coordinates and in the
	// plan's order.
	Injections []Injection
	// Locations records the per-location outcome (address in runtime
	// coordinates and the tactic that succeeded), in patch order.
	Locations []patch.LocResult
	// Warnings lists non-fatal anomalies detected during the rewrite,
	// e.g. an address-based selector that matched nothing because its
	// addresses looked file-relative for a PIE binary.
	Warnings []string
}

// SizePercent returns the output/input file size ratio in percent
// (Table 1's Size% column, 0 when the input size is unknown).
func (r *Result) SizePercent() float64 {
	if r.InputSize == 0 {
		return 0
	}
	return 100 * float64(r.OutputSize) / float64(r.InputSize)
}

// PatchPlan is the serializable decision record produced by Plan and
// consumed by Apply: one entry per patch location carrying the chosen
// tactic, the committed byte edits, the trampoline layout (eviction
// chains included) and any B0 dispatch bindings. PatchPlan.Encode
// serializes it in the compact binary form of internal/plan (DESIGN.md
// §8 has the grammar); PatchPlan.JSON renders it for reading.
type PatchPlan = plan.PatchPlan

// DecodePlan parses a plan serialized with PatchPlan.Encode. Data that
// is not a plan, a plan not bound to its input and its instruction
// universe included, is ErrMalformedBinary; a plan of another schema
// version (the JSON plans of version 1 included) is
// ErrUnsupportedBinary and has to be emitted again. The plan's byte
// fields are views into data, which the caller must not modify while
// the plan is in use.
func DecodePlan(data []byte) (*PatchPlan, error) { return plan.Decode(data) }

// Rewrite statically rewrites the binary according to cfg. The input
// slice is not modified.
//
// Rewrite decides and materializes in one pass — a Stream session whose
// whole selection is cfg.Select, finished at once — with no plan in
// between. Callers that want the intermediate artefact (to cache, audit
// or ship it) use Plan and Apply, which reproduce the same bytes.
func Rewrite(input []byte, cfg Config) (*Result, error) {
	return RewriteTo(context.Background(), nil, input, cfg)
}

// oneShot opens the session behind Rewrite and Plan: NewStream, plus
// their precondition that the configuration selects something.
func oneShot(ctx context.Context, input []byte, cfg Config) (*Stream, error) {
	if cfg.Select == nil {
		return nil, e9err.Unsupported("match", "e9patch: Config.Select is required")
	}
	return NewStream(ctx, input, cfg)
}

// RewriteTo is Rewrite with cancellation, and with the output written
// to w instead of returned. The pipeline checks ctx at every phase
// boundary (parse → disasm → match → patch → trampoline/group → emit)
// and inside the patching loop, so a rewrite whose caller has gone away
// stops early instead of emitting an output nobody will read; the
// returned error wraps ctx.Err() when aborted. Like every session
// operation it is a recovery boundary: a panic escaping the pipeline —
// a rewriter bug tripped by unforeseen input — is contained and
// returned as ErrInternal with the stack attached.
//
// With w non-nil, Result.Output is nil, Result.OutputSize the bytes
// written, and the bytes are those Rewrite would have returned. The
// output is the input with its text patched in place plus an appendix,
// so it is written from the input slice, the patched text and the blob
// as they are and is never assembled in memory; with input a read-only
// mapping (elf64.OpenInput) most of it never enters this process's heap
// at all. w must not be the file input is mapped from. A nil w returns
// the output in Result.Output. See Stream.FinishTo for the error
// contract.
func RewriteTo(ctx context.Context, w io.Writer, input []byte, cfg Config) (*Result, error) {
	s, err := oneShot(ctx, input, cfg)
	if err != nil {
		return nil, err
	}
	return s.FinishTo(ctx, w)
}

// Plan runs the decision phase only: disassemble, match, run the S1
// reverse-order tactic selection and allocate every trampoline against
// the binary's address space — without materializing an output. The
// returned plan is deterministic (planning twice yields byte-identical
// encodings), bound to the input by SHA-256, and Apply(input, plan)
// reproduces Rewrite(input, cfg) byte-for-byte. The input slice is not
// modified. Plan is NewStream + Stream.Plan; a caller that also wants
// the output, or cancellation, drives the session itself.
func Plan(input []byte, cfg Config) (*PatchPlan, error) {
	ctx := context.Background()
	s, err := oneShot(ctx, input, cfg)
	if err != nil {
		return nil, err
	}
	return s.Plan(ctx)
}

// Apply materializes a plan onto input: replay the recorded byte
// edits, group the recorded trampolines and append the loader blob.
// No decision logic runs — a plan produced on one machine can be
// audited and applied on another. The input must be the binary the
// plan was made for (checked via the bound SHA-256 and the text
// geometry); the input slice is not modified.
func Apply(input []byte, p *PatchPlan) (*Result, error) {
	return ApplyTo(context.Background(), nil, input, p)
}

// ApplyTo is Apply with cancellation, and with the output written to w
// instead of returned. Like RewriteTo it is a recovery boundary:
// hostile plans are validated up front, and any residual panic is
// contained and returned as ErrInternal.
//
// ApplyTo re-runs instruction recovery under the plan's recorded mode
// and requires the disassembly-universe digests to match: a plan
// emitted under one mode (or against a different binary revision) is
// rejected instead of silently replaying byte edits into a universe
// the planner never saw.
//
// With w non-nil, Result.Output is nil, Result.OutputSize the bytes
// written, and the bytes are those Apply would have returned, written
// from the input slice, the patched text and the blob as they are, as
// RewriteTo writes them. w must not be the file input is mapped from. A
// nil w returns the output in Result.Output.
func ApplyTo(ctx context.Context, w io.Writer, input []byte, p *PatchPlan) (_ *Result, err error) {
	defer e9err.Recover("apply", &err)
	return applyContext(ctx, w, input, p, true)
}

// ApplyTrusted is ApplyTrustedContext without cancellation.
func ApplyTrusted(input []byte, p *PatchPlan) (*Result, error) {
	return ApplyTrustedContext(context.Background(), input, p)
}

// ApplyTrustedContext materializes a plan this process made and banked
// earlier (a plan cache) without re-deriving the disassembly-universe
// digest that ApplyTo checks. The input binding is still verified, and
// the recorded universe is a deterministic function of the mode and
// text bytes the hash pins, so re-deriving it could only re-prove the
// binding, at full instruction-recovery cost. Every structural
// validation still runs. A plan from anywhere else (a file, a client,
// another process) goes through Apply or ApplyTo, whose digest check
// rejects a plan that lies about its recovery mode.
func ApplyTrustedContext(ctx context.Context, input []byte, p *PatchPlan) (_ *Result, err error) {
	defer e9err.Recover("apply", &err)
	return applyContext(ctx, nil, input, p, false)
}

// applyContext materializes a plan, into w or, with a nil w, into
// Result.Output. verifyUniverse selects whether the recorded disassembly
// digest is re-derived and checked (Apply) or trusted on the strength of
// the input binding (ApplyTrusted).
func applyContext(ctx context.Context, w io.Writer, input []byte, p *PatchPlan, verifyUniverse bool) (*Result, error) {
	if p == nil {
		return nil, e9err.Malformed("apply", "e9patch: nil plan")
	}
	if p.Version != plan.Version {
		return nil, e9err.Unsupported("apply", "e9patch: unsupported plan version %d (this build understands %d)", p.Version, plan.Version)
	}
	if p.InputSHA256 == "" || p.Disasm == "" || p.DisasmDigest == "" {
		return nil, e9err.Malformed("apply", "e9patch: plan is not bound to its input and its instruction universe (inputSha256, disasm and disasmDigest are required)")
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := p.CheckInput(input); err != nil {
		return nil, err
	}

	// Open the input under the plan's settings as under a Config's.
	// Only Apply recovers; recovery is deterministic in width, so any
	// parallelism reproduces the planner's digest.
	cfg := Config{Granularity: p.Granularity, SkipPrefix: p.SkipPrefix, Disasm: DisasmMode(p.Disasm)}
	st, err := openPipeline(ctx, "apply", input, &cfg, verifyUniverse)
	if err != nil {
		return nil, err
	}
	if st.bias != p.Bias {
		return nil, e9err.Malformed("apply", "e9patch: plan load bias %#x does not match binary (%#x)", p.Bias, st.bias)
	}
	if st.textAddr+st.bias != p.TextAddr || len(st.text) != p.TextLen {
		return nil, e9err.Malformed("apply", "e9patch: plan text geometry %#x+%d does not match binary %#x+%d",
			p.TextAddr, p.TextLen, st.textAddr+st.bias, len(st.text))
	}
	// Replaying under a different mode (or a drifted binary) is a
	// mismatch, not a silent mispatch.
	if verifyUniverse && st.digest() != p.DisasmDigest {
		return nil, e9err.Malformed("apply",
			"e9patch: plan's recorded %s-mode instruction universe does not match this binary (digest mismatch): replan, or apply under the mode the plan was emitted with", st.mode)
	}
	// Injections come from the (possibly hostile) plan; revalidate them
	// against this binary before mapping anything.
	if err := validateInjections(p.Injections, st.loads, "apply"); err != nil {
		return nil, err
	}

	// Replay the decision stream into a rewriter's record, then check
	// what only the ELF file can tell: a trampoline in a segment's pages
	// would be shadowed by the segment, or, under a MAP_FIXED loader,
	// mapped over it.
	rw, err := patch.Replay(st.text, p.TextAddr, p.Sites)
	if err != nil {
		return nil, err
	}
	for _, tr := range rw.Trampolines() {
		end := tr.Addr + uint64(len(tr.Code))
		if seg, ok := segmentAt(st.loads, tr.Addr, end); ok {
			return nil, e9err.MalformedAt("apply", tr.Addr, "e9patch: plan trampoline [%#x,%#x) overlaps loaded segment [%#x,%#x)",
				tr.Addr, end, seg.lo, seg.hi)
		}
	}

	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// p.Granularity, not cfg's default: grouping refuses a forged 0.
	return emit(newEmitInput(st, rw, p.Granularity, p.Injections, p.Insts, p.BadBytes, p.Warnings), w)
}

// Load builds an executable image from an original or rewritten binary
// in the given machine, returning the entry point. PIE binaries are
// loaded at PIEBase. A rewritten binary's appended table is replayed
// first: its trampoline blocks are written at their mapped addresses
// and its B0 dispatch table is installed in m.SigTab, both with the
// load bias added back (buildBlob stores them link-relative). More
// than loader.MapCountLimit mappings are refused, as the kernel's
// vm.max_map_count would refuse them.
func Load(m *emu.Machine, file []byte) (uint64, error) {
	f, err := elf64.Parse(file)
	if err != nil {
		return 0, err
	}
	bias := loadBias(f)

	// Blocks are whole granules: any zero-filled portion that overlaps
	// a loaded segment is shadowed when the segments are copied
	// afterwards (trampolines themselves are never allocated inside
	// segment pages, and Apply refuses a plan that puts one there, so
	// the ordering is equivalent to the real loader's page-granular
	// MAP_FIXED calls over non-segment pages only).
	if blob, ok := elf64.AppendedBlob(file); ok {
		b, err := loader.Decode(blob)
		if err != nil {
			return 0, err
		}
		if len(b.Mappings) > loader.MapCountLimit {
			return 0, fmt.Errorf("loader: %d mappings exceed vm.max_map_count=%d (use a coarser granularity)",
				len(b.Mappings), loader.MapCountLimit)
		}
		for _, mp := range b.Mappings {
			m.Mem.WriteBytes(mp.Vaddr+bias, b.Blocks[mp.Phys])
		}
		for addr, tramp := range b.SigTab {
			m.SigTab[addr+bias] = tramp + bias
		}
	}

	// PT_LOAD segments: file bytes, then zero fill to memsz.
	for _, p := range f.Progs {
		if p.Type != elf64.PTLoad {
			continue
		}
		if p.Off+p.Filesz > uint64(len(file)) {
			return 0, fmt.Errorf("loader: segment beyond file end")
		}
		vaddr := p.Vaddr + bias
		m.Mem.WriteBytes(vaddr, file[p.Off:p.Off+p.Filesz])
		if p.Memsz > p.Filesz {
			m.Mem.Map(vaddr+p.Filesz, p.Memsz-p.Filesz)
		}
	}
	return f.Header.Entry + bias, nil
}
