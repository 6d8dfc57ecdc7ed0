package rpc

import (
	"context"
	"encoding/json"
	"io"
	"strings"

	"e9patch"
	"e9patch/internal/e9err"
	"e9patch/internal/elf64"
	"e9patch/internal/trampoline"
)

// state is the session position in the option* binary (patch|reserve)*
// emit grammar.
type state int

const (
	stateStart state = iota // before binary
	stateOpen               // binary received, accepting patch/reserve
	stateDone               // emit completed
)

// Session is the protocol state machine. It owns at most one input
// binary (possibly an mmap view) and one incremental rewrite stream,
// and is driven one message at a time by Serve. Its rewrite
// configuration starts from the zero Config and is refined by the
// stream's option and reserve messages alone.
// A Session is not safe for concurrent use.
type Session struct {
	cfg    e9patch.Config
	state  state
	input  *elf64.Input // owned mmap/file input, when opened by path
	stream *e9patch.Stream
	res    *e9patch.Result
}

// NewSession starts a session in the initial state.
func NewSession() *Session { return &Session{} }

// Done reports whether the session has emitted.
func (s *Session) Done() bool { return s.state == stateDone }

// Result returns the rewrite outcome after a successful emit; its Output
// is nil when the emit named an output path, which the output went to.
func (s *Session) Result() *e9patch.Result { return s.res }

// Close releases the session's input mapping, if any. Safe to call at
// any point and more than once.
func (s *Session) Close() error {
	in := s.input
	s.input = nil
	if in != nil {
		return in.Close()
	}
	return nil
}

// decodeParams strictly parses msg.Params into dst: unknown fields are
// a protocol error, catching misspelled options instead of silently
// ignoring them. A message without params decodes as all-defaults.
func decodeParams(msg *Message, dst any) error {
	if len(msg.Params) == 0 {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(string(msg.Params)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return e9err.Malformed("rpc", "rpc: %s params: %v", msg.Method, err)
	}
	return nil
}

// Handle processes one message and returns the result object for its
// response. All failures are classified e9err errors; a panic in the
// layers below is contained here and surfaces as ErrInternal.
func (s *Session) Handle(ctx context.Context, msg *Message) (_ any, err error) {
	defer e9err.Recover("rpc", &err)
	if s.state == stateDone {
		return nil, e9err.Malformed("rpc", "rpc: %q after emit: session is finished", msg.Method)
	}
	switch msg.Method {
	case "option":
		return s.handleOption(msg)
	case "binary":
		return s.handleBinary(ctx, msg)
	case "reserve":
		return s.handleReserve(msg)
	case "patch":
		return s.handlePatch(msg)
	case "emit":
		return s.handleEmit(ctx, msg)
	default:
		uerr := e9err.Unsupported("rpc", "rpc: unknown method %q", msg.Method)
		uerr.Reason = reasonUnknownMethod
		return nil, uerr
	}
}

type optionParams struct {
	Granularity *int    `json:"granularity"`
	SkipPrefix  *Uint64 `json:"skipPrefix"`
	Disasm      *string `json:"disasm"`
	B0Fallback  *bool   `json:"b0Fallback"`
	Counter     *Uint64 `json:"counter"`
}

// handleOption refines the rewrite configuration. Options shape the
// open phase (disassembly width, skip prefix) as well as the decision
// phase, so the grammar requires them before the binary message.
func (s *Session) handleOption(msg *Message) (any, error) {
	if s.state != stateStart {
		return nil, e9err.Malformed("rpc", "rpc: option after binary: options must precede the binary message")
	}
	var p optionParams
	if err := decodeParams(msg, &p); err != nil {
		return nil, err
	}
	if p.Granularity != nil {
		s.cfg.Granularity = *p.Granularity
	}
	if p.SkipPrefix != nil {
		s.cfg.SkipPrefix = uint64(*p.SkipPrefix)
	}
	if p.Disasm != nil {
		mode, err := e9patch.ParseDisasmMode(*p.Disasm)
		if err != nil {
			return nil, e9err.Malformed("rpc", "rpc: %v", err)
		}
		s.cfg.Disasm = mode
	}
	if p.B0Fallback != nil {
		s.cfg.Patch.B0Fallback = *p.B0Fallback
	}
	if p.Counter != nil {
		s.cfg.Template = trampoline.Counter{Addr: uint64(*p.Counter)}
	}
	return map[string]any{"ok": true}, nil
}

type binaryParams struct {
	Filename string `json:"filename"`
	Data     []byte `json:"data"`
}

// handleBinary opens the input binary — by path (mmap-backed) or
// inline as base64 — and starts the incremental rewrite stream:
// parsing and disassembly happen now, selections stream in afterwards.
func (s *Session) handleBinary(ctx context.Context, msg *Message) (any, error) {
	if s.state != stateStart {
		return nil, e9err.Malformed("rpc", "rpc: duplicate binary message")
	}
	var p binaryParams
	if err := decodeParams(msg, &p); err != nil {
		return nil, err
	}
	if (p.Filename != "") == (p.Data != nil) {
		return nil, e9err.Malformed("rpc", "rpc: binary needs exactly one of filename, data")
	}

	data := p.Data
	if p.Filename != "" {
		in, err := elf64.OpenInput(p.Filename)
		if err != nil {
			return nil, err
		}
		s.input = in
		data = in.Data
	}

	stream, err := e9patch.NewStream(ctx, data, s.cfg)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.stream = stream
	s.state = stateOpen
	return map[string]any{
		"size":     len(data),
		"insts":    stream.Insts(),
		"badBytes": stream.BadBytes(),
	}, nil
}

type reserveParams struct {
	Ranges []struct {
		Lo Uint64 `json:"lo"`
		Hi Uint64 `json:"hi"`
	} `json:"ranges"`
}

// handleReserve marks [lo, hi) virtual-address ranges off limits for
// trampoline placement; valid before or after the binary opens.
func (s *Session) handleReserve(msg *Message) (any, error) {
	var p reserveParams
	if err := decodeParams(msg, &p); err != nil {
		return nil, err
	}
	for _, r := range p.Ranges {
		if r.Hi <= r.Lo {
			return nil, e9err.Malformed("rpc", "rpc: empty reserve range [%#x,%#x)", uint64(r.Lo), uint64(r.Hi))
		}
		if s.state == stateOpen {
			if err := s.stream.Reserve(uint64(r.Lo), uint64(r.Hi)); err != nil {
				return nil, err
			}
		} else {
			s.cfg.ReserveVA = append(s.cfg.ReserveVA, [2]uint64{uint64(r.Lo), uint64(r.Hi)})
		}
	}
	return map[string]any{"ranges": len(p.Ranges)}, nil
}

type patchParams struct {
	Addrs []Uint64 `json:"addrs"`
	Match string   `json:"match"`
}

// handlePatch merges one batch of patch locations into the stream:
// explicit runtime addresses or an E9Tool match expression (the paper's
// applications are "branch" and "heapwrite"). Sites accumulate as a
// union across messages; the per-site resource limit is enforced
// incrementally, so a hostile stream fails at the message that crosses
// it.
func (s *Session) handlePatch(msg *Message) (any, error) {
	if s.state != stateOpen {
		return nil, e9err.Malformed("rpc", "rpc: patch before binary")
	}
	var p patchParams
	if err := decodeParams(msg, &p); err != nil {
		return nil, err
	}
	if (len(p.Addrs) > 0) == (p.Match != "") {
		return nil, e9err.Malformed("rpc", "rpc: patch needs exactly one of addrs, match")
	}

	var added int
	var err error
	if len(p.Addrs) > 0 {
		addrs := make([]uint64, len(p.Addrs))
		for i, a := range p.Addrs {
			addrs[i] = uint64(a)
		}
		added, err = s.stream.SelectAddrs(addrs...)
	} else {
		// A malformed or oversized expression is ErrBadSpec from the
		// spec-language front end, before anything is selected.
		sel, cerr := e9patch.SelectMatch(p.Match)
		if cerr != nil {
			return nil, cerr
		}
		added, err = s.stream.Select(sel)
	}
	if err != nil {
		return nil, err
	}
	return map[string]any{"matched": added, "selected": s.stream.Selected()}, nil
}

type emitParams struct {
	Output string `json:"output"`
}

// handleEmit runs the decision and emit phases over the accumulated
// selection. With an output path the binary is streamed to disk as
// e9tool writes it, so the backend never holds an output-sized buffer,
// and Session.Result().Output is nil; without one the Result carries the
// output. Either way the Result stays available through Session.Result.
func (s *Session) handleEmit(ctx context.Context, msg *Message) (any, error) {
	if s.state != stateOpen {
		return nil, e9err.Malformed("rpc", "rpc: emit before binary")
	}
	var p emitParams
	if err := decodeParams(msg, &p); err != nil {
		return nil, err
	}
	finish := func(w io.Writer) (err error) {
		s.res, err = s.stream.FinishTo(ctx, w)
		return err
	}
	// An unwritable path is the environment's failure (ErrOutput), not a
	// broken invariant.
	var err error
	if p.Output == "" {
		err = finish(nil)
	} else {
		err = elf64.WriteOutput(p.Output, finish)
	}
	if s.res != nil {
		s.state = stateDone
	}
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"outputSize":  s.res.OutputSize,
		"trampolines": s.res.Trampolines,
		"patched":     s.res.Stats.Patched(),
		"failed":      s.res.Stats.Failed,
		"mappings":    s.res.Mappings,
		"warnings":    s.res.Warnings,
	}, nil
}
