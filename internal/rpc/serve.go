package rpc

import (
	"context"
	"io"

	"e9patch/internal/e9err"
)

// Serve drives one complete session over a byte stream: messages are
// read from r, responses (for id-carrying requests) and at most one
// final error object are written to w. It returns nil exactly when the
// stream reached a clean emit; a stream that ends early, breaks the
// grammar, or trips a resource cap returns the classified error after
// reporting it on the wire — the backend contract is that hostile
// input ends the session, never the process.
func Serve(ctx context.Context, r io.Reader, w io.Writer) error {
	d := NewDecoder(r)
	s := NewSession()
	defer s.Close()
	for {
		msg, err := d.Next()
		if err == io.EOF {
			if !s.Done() {
				err = e9err.Malformed("rpc", "rpc: stream ended before emit")
				WriteError(w, nil, err)
				return err
			}
			return nil
		}
		if err != nil {
			WriteError(w, nil, err)
			return err
		}
		res, err := s.Handle(ctx, msg)
		if err != nil {
			WriteError(w, msg, err)
			return err
		}
		if msg.wantsReply() {
			if err := WriteResult(w, msg, res); err != nil {
				return err
			}
		}
	}
}
