package e9patch

import (
	"time"

	"e9patch/internal/e9err"
)

// The structured error taxonomy. Every error the rewriter returns on
// hostile or degenerate input belongs to exactly one of these classes;
// match with errors.Is and recover the context fields (phase, offset,
// machine-readable reason) with errors.As against *Error.
//
//	_, err := e9patch.Rewrite(input, cfg)
//	switch {
//	case errors.Is(err, e9patch.ErrMalformedBinary):   // garbage input
//	case errors.Is(err, e9patch.ErrUnsupportedBinary): // out of scope
//	case errors.Is(err, e9patch.ErrResourceLimit):     // over a Limits bound
//	case errors.Is(err, e9patch.ErrInternal):          // our bug (recovered panic)
//	case errors.Is(err, e9patch.ErrOutput):            // RewriteTo/FinishTo: the writer failed
//	}
var (
	// ErrMalformedBinary classifies structurally broken inputs:
	// truncated headers, overflowing section offsets, inconsistent
	// geometry, undecodable plans. Retrying the same input is pointless.
	ErrMalformedBinary = e9err.ErrMalformed
	// ErrUnsupportedBinary classifies well-formed inputs outside the
	// rewriter's scope (wrong machine, wrong ELF class, unknown plan
	// schema version). Also not retryable.
	ErrUnsupportedBinary = e9err.ErrUnsupported
	// ErrResourceLimit classifies inputs rejected by a Config.Limits
	// bound (input size, text size, patch sites, trampoline budget,
	// per-phase deadline). The same input may succeed under a larger
	// budget.
	ErrResourceLimit = e9err.ErrResourceLimit
	// ErrInternal classifies broken invariants — typically a panic
	// contained by a recovery boundary. These are rewriter bugs, never
	// the client's; the *Error carries the recovery site's stack.
	ErrInternal = e9err.ErrInternal
	// ErrBadSpec classifies spec-language (internal/lang) match or
	// patch specifications that fail to parse or typecheck. The
	// *Error's reason and message carry the 1-based line:column of the
	// offending token; e9served maps this class to HTTP 422.
	ErrBadSpec = e9err.ErrBadSpec
	// ErrOutput classifies a rewrite whose output could not be written:
	// the io.Writer handed to RewriteTo or FinishTo returned an error,
	// which the *Error (phase "emit") wraps, so errors.Is reaches it.
	ErrOutput = e9err.ErrOutput
)

// Error is the concrete classified error type behind the taxonomy;
// errors.As(err, &e) recovers the pipeline phase, the file offset or
// address the failure was detected at, the machine-readable rejection
// reason for resource limits, and — for recovered panics — the stack.
type Error = e9err.Error

// Limits bounds the resources a single rewrite may consume, so one
// hostile or degenerate input cannot exhaust the process. The zero
// value disables every bound (no limits). Violations are reported as
// ErrResourceLimit with a machine-readable reason.
type Limits struct {
	// MaxInputBytes caps the input binary size (0: unlimited).
	MaxInputBytes int64
	// MaxTextBytes caps the .text section size the pipeline will
	// disassemble and patch (0: unlimited).
	MaxTextBytes int64
	// MaxPatchSites caps the number of locations the selector may
	// choose (0: unlimited). Every site costs trampoline memory and
	// patch work, so a hostile selector multiplies cost by this factor.
	MaxPatchSites int
	// MaxTrampolineBytes caps the total emitted trampoline code bytes
	// (0: unlimited); it bounds the rewrite's arena footprint.
	MaxTrampolineBytes int64
	// PhaseTimeout bounds each pipeline phase (disassembly, patching)
	// separately (0: unlimited). Expiry aborts the rewrite with an
	// ErrResourceLimit carrying the phase-deadline reason.
	PhaseTimeout time.Duration
}

// MaxGranularity is the largest physical-page-grouping block size (in
// pages) the rewriter accepts. Granularity sizes block allocations in
// the emit phase, so an unbounded value would let a hostile
// configuration demand arbitrarily large contiguous buffers.
const MaxGranularity = 4096
