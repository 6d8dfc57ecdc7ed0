// Shipped spec-language recipes: the data files under examples/specs/
// paired with builders for the payload ELFs they call into. Each
// recipe is a complete E9Tool-style use case — match expression, call
// patch, payload — that doubles as an e9served workload and a bench
// profile. The spec text here is the canonical copy; the files under
// examples/specs/ must match it byte for byte (a test asserts this).
package workload

import (
	"fmt"

	"e9patch/internal/elf64"
	"e9patch/internal/x86"
)

// PayloadBase is the link base of the shipped payload ELFs. It sits
// far above the workload kernels' segments (both non-PIE at 0x400000
// and PIE at PIEBase≈0x5555_5555_4000) and below the emulated stack,
// and is reserved from trampoline placement automatically because
// payload segments are injected there.
const PayloadBase uint64 = 0x9_0000_0000

// payloadTextAddr/payloadDataAddr pin the layout elf64.Build produces
// for a one-page .text: text at base+0x1000, data on the next page.
const (
	payloadTextAddr = PayloadBase + elf64.TextVaddrOff
	payloadDataAddr = PayloadBase + 2*elf64.PageSize
)

// TracePayloadCounterAddr is the 8-byte invocation counter the trace
// payload bumps in its .data page (tests read it back).
func TracePayloadCounterAddr() uint64 { return payloadDataAddr }

// BuildTracePayload builds the syscall-trace payload: one global
// function
//
//	trace(addr) — forward the patched call site's address to the
//	RTOutput runtime binding, then bump the invocation counter.
//
// The payload respects the call-trampoline ABI (DESIGN.md §10.3): it
// clobbers only r11/rdi-class registers the trampoline restores, uses
// no SSE and makes no stack-alignment assumptions.
func BuildTracePayload() ([]byte, error) {
	a := x86.NewAsm(payloadTextAddr)
	a.MovRegImm64(x86.R11, RTOutput)
	a.CallReg(x86.R11)
	a.MovRegImm64(x86.R11, payloadDataAddr)
	a.AddMemImm8x64(x86.M(x86.R11, 0), 1)
	a.Ret()
	text, err := a.Finish()
	if err != nil {
		return nil, fmt.Errorf("workload trace payload: %w", err)
	}
	return buildPayload("trace", text, 8, 0)
}

// CoverageBitmapSize is the coverage payload's site bitmap size: one
// byte per low-16-bit address slot.
const CoverageBitmapSize uint64 = 1 << 16

// CoverageBitmapAddr is the bitmap's address (in .bss, after the
// 8-byte hit counter in .data).
func CoverageBitmapAddr() uint64 { return payloadDataAddr + elf64.PageSize }

// CoverageCounterAddr is the coverage payload's 8-byte hit counter.
func CoverageCounterAddr() uint64 { return payloadDataAddr }

// BuildCoveragePayload builds the branch-coverage payload: one global
// function
//
//	cover(addr) — set bitmap[addr & 0xffff] and bump the hit counter.
//
// The bitmap lives in .bss; rewriting the target binary with this
// payload turns every executed conditional branch into a set byte.
func BuildCoveragePayload() ([]byte, error) {
	a := x86.NewAsm(payloadTextAddr)
	a.MovRegImm64(x86.R10, CoverageBitmapAddr())
	a.MovRegReg64(x86.R11, x86.RDI)
	a.AndRegImm64(x86.R11, 0xFFFF)
	a.MovMemImm8(x86.MIdx(x86.R10, x86.R11, 1, 0), 1)
	a.MovRegImm64(x86.R11, CoverageCounterAddr())
	a.AddMemImm8x64(x86.M(x86.R11, 0), 1)
	a.Ret()
	text, err := a.Finish()
	if err != nil {
		return nil, fmt.Errorf("workload coverage payload: %w", err)
	}
	return buildPayload("cover", text, 8, CoverageBitmapSize)
}

// buildPayload wraps payload text into a fixed-address ELF exporting
// one global function symbol spanning the whole text.
func buildPayload(fn string, text []byte, dataLen int, bssSize uint64) ([]byte, error) {
	if len(text) >= elf64.PageSize {
		return nil, fmt.Errorf("workload payload %s: text %d bytes overruns its page", fn, len(text))
	}
	return elf64.Build(elf64.BuildSpec{
		Base:    PayloadBase,
		Text:    text,
		Data:    make([]byte, dataLen),
		BSSSize: bssSize,
		Symbols: []elf64.Sym{{Name: fn, Addr: payloadTextAddr, Size: uint64(len(text))}},
	})
}

// Recipe pairs a shipped spec file with its payload builder.
type Recipe struct {
	// Name identifies the recipe ("syscall_trace", "branch_coverage").
	Name string
	// File is the repo-relative spec file path.
	File string
	// Spec is the canonical spec-file text (identical to File).
	Spec string
	// BuildPayload builds the payload ELF the spec's call patch needs.
	BuildPayload func() ([]byte, error)
}

// Canonical spec texts for the shipped recipes. The examples/specs/
// files carry the same bytes.
const (
	SyscallTraceSpec = `# Syscall/runtime-call tracing (shipped recipe).
#
# Every indirect call in the target is instrumented with a
# context-saving call trampoline that invokes trace(addr) in the
# injected payload; trace() forwards the call-site address to the
# RTOutput runtime binding and bumps an invocation counter in its
# .data page. In the synthetic workloads the indirect calls are
# exactly the runtime-call (libc/syscall) boundary, so the recorded
# stream is the program's runtime-call trace.
#
# Build the payload next to this file first:
#   go run ./examples/specs/gen
match call & indirect
patch call trace(addr) @trace_payload.elf
`

	BranchCoverageSpec = `# Branch coverage (shipped recipe).
#
# Every conditional jump is instrumented with cover(addr), which sets
# bitmap[addr & 0xffff] in the payload's .bss and bumps a hit counter
# — the classic fuzzing coverage map, expressed as a spec file.
#
# Build the payload next to this file first:
#   go run ./examples/specs/gen
match jcc
exclude addr=0x0..0x1000
patch call cover(addr) @coverage_payload.elf
`
)

// Recipes returns the shipped recipes.
func Recipes() []Recipe {
	return []Recipe{
		{
			Name:         "syscall_trace",
			File:         "examples/specs/syscall_trace.e9spec",
			Spec:         SyscallTraceSpec,
			BuildPayload: BuildTracePayload,
		},
		{
			Name:         "branch_coverage",
			File:         "examples/specs/branch_coverage.e9spec",
			Spec:         BranchCoverageSpec,
			BuildPayload: BuildCoveragePayload,
		},
	}
}

// RecipeByName returns the named recipe.
func RecipeByName(name string) (Recipe, bool) {
	for _, r := range Recipes() {
		if r.Name == name {
			return r, true
		}
	}
	return Recipe{}, false
}
