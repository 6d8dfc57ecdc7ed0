// Package e9err defines the rewriter's structured error taxonomy.
//
// Every error the pipeline can return on hostile or degenerate input
// belongs to exactly one class, each a sentinel matchable with
// errors.Is:
//
//   - ErrMalformed: the input (binary, plan, spec) is structurally
//     broken — truncated headers, overflowing offsets, inconsistent
//     geometry. The client sent garbage; retrying is pointless.
//   - ErrUnsupported: the input is well-formed but outside the
//     rewriter's scope (wrong machine, wrong class, an ELF variant we
//     do not model). Also not retryable.
//   - ErrResourceLimit: the input exceeded a configured Limits bound
//     (size, patch sites, trampoline budget, phase deadline). The same
//     input may succeed under a larger budget.
//   - ErrInternal: an invariant broke — typically a panic contained by
//     a recovery boundary. These are our bugs, never the client's, and
//     carry the recovery site's stack for the operator.
//   - ErrBadSpec: a match/patch specification (the internal/lang
//     language) failed to parse or typecheck. The error carries the
//     line/column of the offending token so recipe authors can fix the
//     spec; e9served maps it to HTTP 422.
//   - ErrOutput: the rewrite was decided but its bytes could not be
//     delivered: the caller's io.Writer or the output file returned an
//     error, which the *Error wraps. Neither the input's fault nor a
//     rewriter bug; the same call may succeed once the sink does.
//
// The concrete *Error type adds phase, offset and machine-readable
// reason context on top of the class. The package is a leaf (standard
// library only) so every layer — elf64 parsing, the patch core, the
// public API, the server — shares one taxonomy without import cycles.
package e9err

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
)

// The error classes. See the package comment for their contract.
var (
	ErrMalformed     = errors.New("malformed input")
	ErrUnsupported   = errors.New("unsupported input")
	ErrResourceLimit = errors.New("resource limit exceeded")
	ErrInternal      = errors.New("internal error")
	ErrBadSpec       = errors.New("bad spec")
	ErrOutput        = errors.New("output not written")
)

// Machine-readable rejection reasons carried by ErrResourceLimit
// errors; e9served uses them as metric labels and to pick the HTTP
// status (413 for input size, 504 for deadlines, 422 otherwise).
const (
	ReasonInputTooLarge    = "input-too-large"
	ReasonTextTooLarge     = "text-too-large"
	ReasonTooManySites     = "too-many-sites"
	ReasonTrampolineBudget = "trampoline-budget"
	ReasonPhaseDeadline    = "phase-deadline"

	// ReasonMessageTooLarge labels oversized protocol messages rejected
	// by the JSON-RPC decoder (internal/rpc) before any parsing.
	ReasonMessageTooLarge = "message-too-large"

	// ReasonBadSpec labels ErrBadSpec rejections in metrics. The error's
	// Reason string appends the source position ("bad-spec:LINE:COL") so
	// position info survives even contexts that only keep the reason.
	ReasonBadSpec = "bad-spec"
)

// Error is a classified pipeline error. Class is always one of the
// sentinels; errors.Is(err, ErrMalformed) etc. match through it,
// and errors.As(err, &e) recovers the context fields.
type Error struct {
	// Class is the taxonomy sentinel this error belongs to.
	Class error
	// Phase names the pipeline phase that failed ("parse", "disasm",
	// "match", "patch", "plan", "apply", "emit", "server").
	Phase string
	// Offset is the file offset or virtual address the failure was
	// detected at, when one is known (0 otherwise).
	Offset uint64
	// Reason is the machine-readable rejection reason for resource
	// limits (one of the Reason* constants; empty otherwise).
	Reason string
	// Msg is the human-readable description.
	Msg string
	// Err is the wrapped cause, when the failure originated in a lower
	// layer.
	Err error
	// Stack is the goroutine stack captured at a recovery boundary;
	// non-nil exactly when this error contains a recovered panic.
	Stack []byte
}

// Error implements the error interface.
func (e *Error) Error() string {
	var b strings.Builder
	if e.Phase != "" {
		b.WriteString(e.Phase)
		b.WriteString(": ")
	}
	b.WriteString(e.Class.Error())
	if e.Msg != "" {
		b.WriteString(": ")
		b.WriteString(e.Msg)
	}
	if e.Offset != 0 {
		fmt.Fprintf(&b, " (at %#x)", e.Offset)
	}
	if e.Err != nil {
		b.WriteString(": ")
		b.WriteString(e.Err.Error())
	}
	return b.String()
}

// Is makes errors.Is(err, ErrMalformed) and friends work: an *Error
// matches its class sentinel (and nothing else directly; wrapped
// causes are reached through Unwrap as usual).
func (e *Error) Is(target error) bool { return target == e.Class }

// Unwrap exposes the cause chain.
func (e *Error) Unwrap() error { return e.Err }

// Recovered reports whether this error contains a panic caught at a
// recovery boundary.
func (e *Error) Recovered() bool { return len(e.Stack) > 0 }

// Malformed builds an ErrMalformed error for phase.
func Malformed(phase, format string, args ...any) *Error {
	return &Error{Class: ErrMalformed, Phase: phase, Msg: fmt.Sprintf(format, args...)}
}

// MalformedAt is Malformed with a file offset or address.
func MalformedAt(phase string, offset uint64, format string, args ...any) *Error {
	return &Error{Class: ErrMalformed, Phase: phase, Offset: offset, Msg: fmt.Sprintf(format, args...)}
}

// Unsupported builds an ErrUnsupported error for phase.
func Unsupported(phase, format string, args ...any) *Error {
	return &Error{Class: ErrUnsupported, Phase: phase, Msg: fmt.Sprintf(format, args...)}
}

// Limit builds an ErrResourceLimit error with a machine-readable
// reason (one of the Reason* constants).
func Limit(phase, reason, format string, args ...any) *Error {
	return &Error{Class: ErrResourceLimit, Phase: phase, Reason: reason, Msg: fmt.Sprintf(format, args...)}
}

// Internal builds an ErrInternal error for phase.
func Internal(phase, format string, args ...any) *Error {
	return &Error{Class: ErrInternal, Phase: phase, Msg: fmt.Sprintf(format, args...)}
}

// BadSpec builds an ErrBadSpec error for a spec-language failure at the
// given 1-based source position. The position is carried twice: in the
// machine-readable Reason ("bad-spec:LINE:COL") and in the message
// ("line L:C: ..."), so both HTTP bodies and metric labels locate the
// offending token.
func BadSpec(phase string, line, col int, format string, args ...any) *Error {
	return &Error{
		Class:  ErrBadSpec,
		Phase:  phase,
		Reason: fmt.Sprintf("%s:%d:%d", ReasonBadSpec, line, col),
		Msg:    fmt.Sprintf("line %d:%d: %s", line, col, fmt.Sprintf(format, args...)),
	}
}

// Wrap classifies an existing error, preserving it as the cause. A nil
// cause returns nil; a cause that is already an *Error is returned
// unchanged (first classification wins — it was made closest to the
// failure).
func Wrap(class error, phase string, err error) error {
	if err == nil {
		return nil
	}
	var already *Error
	if errors.As(err, &already) {
		return err
	}
	return &Error{Class: class, Phase: phase, Err: err}
}

// FromPanic converts a recovered panic value into an ErrInternal
// carrying the current stack. A panic value that is itself a
// classified *Error keeps its class (a deliberate typed failure thrown
// across frames) but still records the stack.
func FromPanic(phase string, v any) *Error {
	stack := debug.Stack()
	if e, ok := v.(*Error); ok {
		cp := *e
		cp.Stack = stack
		return &cp
	}
	e := &Error{Class: ErrInternal, Phase: phase, Msg: fmt.Sprintf("recovered panic: %v", v), Stack: stack}
	if err, ok := v.(error); ok {
		e.Err = err
		e.Msg = "recovered panic"
	}
	return e
}

// Recover is the defense-in-depth boundary helper:
//
//	func F() (err error) {
//	        defer e9err.Recover("plan", &err)
//	        ...
//	}
//
// A panic reaching the deferred call is converted into an ErrInternal
// (stack included) written to *errp; normal returns are untouched.
func Recover(phase string, errp *error) {
	if v := recover(); v != nil {
		*errp = FromPanic(phase, v)
	}
}
