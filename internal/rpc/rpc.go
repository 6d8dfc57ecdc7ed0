// Package rpc implements the rewriter's E9Patch-style JSON-RPC driving
// protocol: a line-delimited stream of messages that opens a binary,
// accumulates patch selections and options incrementally, and emits
// the rewritten output. The protocol is how frontends in any language
// drive the backend — cmd/e9patch reads it from stdin and writes the
// replies to stdout — while the backend itself does minimal parsing
// and no analysis, exactly the E9Patch frontend/backend split.
//
// A session is the message sequence
//
//	option*  binary  (patch | reserve)*  emit
//
// over a single binary. Messages are JSON-RPC 2.0 objects, one per
// line; requests carrying an "id" receive a response line, id-less
// notifications do not. As in E9Patch, numbers may be written either
// as JSON numbers or as 0x-prefixed hexadecimal strings:
// "address": 4245300 and "address": "0x40c734" are equivalent, and the
// string form represents the full 64-bit range losslessly.
//
// The decoder enforces the message-length cap before any parsing (an
// inline binary rides inside one message, so the cap bounds it too),
// and every failure is a classified e9err error — malformed streams
// and out-of-order messages can end a session but never panic the
// process.
package rpc

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"e9patch/internal/e9err"
)

// maxLineBytes caps one protocol line. Patch messages batch at most a
// few thousand addresses in practice; 4 MiB leaves two orders of
// magnitude of slack.
const maxLineBytes = 4 << 20

// Uint64 is a uint64 that accepts the protocol's number extension:
// either a JSON number or a 0x-prefixed hexadecimal string, so
// "0x40c734" and 4245300 decode identically and values above 2^53
// survive frontends that route numbers through floats.
//
// The string form is strictly "0x" (or "0X") followed by 1..16 hex
// digits. Earlier revisions routed strings through Go's any-base
// literal parser, which silently accepted decimal ("123"), octal
// ("0755" = 493) and binary ("0b101") spellings — an address written
// octal-style by a confused frontend decoded to the wrong location
// with no diagnostic. Those shapes, along with empty strings,
// digit-group underscores and >16-nibble strings, are now classified
// malformed errors (-32000 on the wire).
type Uint64 uint64

// UnmarshalJSON implements json.Unmarshaler.
func (u *Uint64) UnmarshalJSON(b []byte) error {
	s := string(b)
	if strings.HasPrefix(s, "\"") {
		var str string
		if err := json.Unmarshal(b, &str); err != nil {
			return e9err.Malformed("rpc", "rpc: bad number string: %v", err)
		}
		digits, ok := strings.CutPrefix(str, "0x")
		if !ok {
			digits, ok = strings.CutPrefix(str, "0X")
		}
		if !ok || digits == "" {
			return e9err.Malformed("rpc",
				"rpc: bad number string %q (want 0x-prefixed hex)", str)
		}
		if len(digits) > 16 {
			return e9err.Malformed("rpc",
				"rpc: number string %q exceeds 64 bits (%d hex digits)", str, len(digits))
		}
		v, err := strconv.ParseUint(digits, 16, 64)
		if err != nil {
			return e9err.Malformed("rpc",
				"rpc: bad number string %q (want 0x-prefixed hex)", str)
		}
		*u = Uint64(v)
		return nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return e9err.Malformed("rpc", "rpc: bad number %s", s)
	}
	*u = Uint64(v)
	return nil
}

// MarshalJSON renders values that exceed 2^53 as hex strings so
// float-based JSON readers cannot corrupt them, and plain numbers
// otherwise.
func (u Uint64) MarshalJSON() ([]byte, error) {
	if u > 1<<53 {
		return json.Marshal(fmt.Sprintf("%#x", uint64(u)))
	}
	return json.Marshal(uint64(u))
}

// Message is one protocol message: a JSON-RPC 2.0 request or
// notification.
type Message struct {
	JSONRPC string          `json:"jsonrpc,omitempty"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params,omitempty"`
	ID      json.RawMessage `json:"id,omitempty"`
}

// wantsReply reports whether the message is a request (carries a
// non-null id) rather than a notification.
func (m *Message) wantsReply() bool {
	id := strings.TrimSpace(string(m.ID))
	return id != "" && id != "null"
}

// Error is the JSON-RPC error object carried by failure responses.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// The JSON-RPC 2.0 method-not-found code, plus implementation-defined
// codes (the -320xx range) mapping the e9err taxonomy onto the wire. A
// bad line, an unknown field or an out-of-order message is malformed
// input like any other.
const (
	CodeMethodNotFound = -32601
	CodeMalformed      = -32000
	CodeUnsupported    = -32001
	CodeResourceLimit  = -32002
	CodeInternal       = -32003
	CodeBadSpec        = -32004
	CodeOutput         = -32005
)

// reasonUnknownMethod tags unknown-method errors so CodeFor can map
// them to the standard -32601 instead of the generic unsupported code.
const reasonUnknownMethod = "unknown-method"

// CodeFor maps a classified error onto its JSON-RPC error code.
func CodeFor(err error) int {
	var e *e9err.Error
	if errors.As(err, &e) && e.Reason == reasonUnknownMethod {
		return CodeMethodNotFound
	}
	switch {
	case errors.Is(err, e9err.ErrResourceLimit):
		return CodeResourceLimit
	case errors.Is(err, e9err.ErrUnsupported):
		return CodeUnsupported
	case errors.Is(err, e9err.ErrBadSpec):
		return CodeBadSpec
	case errors.Is(err, e9err.ErrMalformed):
		return CodeMalformed
	case errors.Is(err, e9err.ErrOutput):
		return CodeOutput
	default:
		return CodeInternal
	}
}

// response is one reply line.
type response struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  any             `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
}

// Decoder reads the line-delimited message stream, enforcing the
// message-size cap before any JSON parsing.
type Decoder struct {
	r *bufio.Reader
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 64<<10)}
}

// readLine accumulates one line up to the cap. It returns io.EOF only
// with no bytes read; a final line without a trailing newline is
// returned intact.
func (d *Decoder) readLine() ([]byte, error) {
	var line []byte
	for {
		chunk, err := d.r.ReadSlice('\n')
		if len(line)+len(chunk) > maxLineBytes {
			return nil, e9err.Limit("rpc", e9err.ReasonMessageTooLarge,
				"rpc: message exceeds the %d-byte cap", maxLineBytes)
		}
		line = append(line, chunk...)
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(line) == 0 {
				return nil, io.EOF
			}
			return line, nil
		default:
			return nil, e9err.Wrap(e9err.ErrMalformed, "rpc", err)
		}
	}
}

// Next returns the next message, skipping blank lines. It returns
// io.EOF at a clean end of stream; any other failure is classified.
func (d *Decoder) Next() (*Message, error) {
	for {
		line, err := d.readLine()
		if err != nil {
			return nil, err
		}
		trimmed := strings.TrimSpace(string(line))
		if trimmed == "" {
			continue
		}
		var m Message
		dec := json.NewDecoder(strings.NewReader(trimmed))
		if err := dec.Decode(&m); err != nil {
			return nil, e9err.Malformed("rpc", "rpc: bad message: %v", err)
		}
		if dec.More() {
			return nil, e9err.Malformed("rpc", "rpc: trailing content after message object")
		}
		if m.JSONRPC != "" && m.JSONRPC != "2.0" {
			return nil, e9err.Unsupported("rpc", "rpc: unsupported jsonrpc version %q", m.JSONRPC)
		}
		if m.Method == "" {
			return nil, e9err.Malformed("rpc", "rpc: message without method")
		}
		return &m, nil
	}
}

// WriteResult writes a success response for msg to w.
func WriteResult(w io.Writer, msg *Message, result any) error {
	return json.NewEncoder(w).Encode(response{JSONRPC: "2.0", ID: msg.ID, Result: result})
}

// WriteError writes an error response to w. A nil msg (decode failure
// before any message existed) gets a null id.
func WriteError(w io.Writer, msg *Message, err error) error {
	id := json.RawMessage("null")
	if msg != nil && len(msg.ID) > 0 {
		id = msg.ID
	}
	return json.NewEncoder(w).Encode(response{
		JSONRPC: "2.0",
		ID:      id,
		Error:   &Error{Code: CodeFor(err), Message: err.Error()},
	})
}
