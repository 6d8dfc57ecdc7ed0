package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"e9patch"
	"e9patch/internal/rpc"
)

// handleRewriteV2 serves the streaming protocol endpoint: the request
// body is a line-delimited JSON-RPC session (option* binary
// (patch|reserve)* emit — internal/rpc, DESIGN.md §12), typically sent
// with chunked transfer encoding so the client can stream patch
// batches while the binary is already open server-side. The response
// body is the rewritten binary; per-message replies are not written
// (the stats land in X-E9-Stats, like v1).
//
// Unlike v1, a v2 session is stateful and cannot be cached or
// coalesced, so it runs on the handler goroutine; per-session memory
// stays bounded by MaxBodyBytes (one copy of the framed binary, no
// input copies in the pipeline, single-allocation output) and shard
// helpers still draw from the server-wide worker budget.
func (s *Server) handleRewriteV2(x *exchange, r *http.Request) {
	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}

	// One cap bounds the whole stream — messages and framed payload
	// alike — so a session can never hold more than one body's worth of
	// client bytes. Filesystem paths stay off this transport entirely.
	body := http.MaxBytesReader(x.w, r.Body, s.cfg.MaxBodyBytes)
	opts := rpc.Options{
		MaxBinaryBytes: s.cfg.MaxBodyBytes,
		Base: e9patch.Config{
			Parallelism: s.cfg.Workers,
			Pool:        s.shards,
			Limits:      s.cfg.Limits,
		},
	}
	d := rpc.NewDecoder(body, 0)
	sess := rpc.NewSession(opts)
	defer sess.Close()

	mapErr := func(err error) {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			x.fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("stream exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		var ee *e9patch.Error
		if errors.As(err, &ee) && ee.Phase == "rpc" && !errors.Is(err, e9patch.ErrResourceLimit) {
			// Protocol-level breakage — bad JSON, out-of-order messages,
			// unknown methods — is a malformed request, not a semantic
			// rejection of the binary.
			x.fail(http.StatusBadRequest, err.Error())
			return
		}
		x.fail(s.classify(err))
	}

	for !sess.Done() {
		msg, err := d.Next()
		if err == io.EOF {
			x.fail(http.StatusBadRequest, "stream ended before emit")
			return
		}
		if err != nil {
			mapErr(err)
			return
		}
		if _, err := sess.Handle(ctx, msg, d); err != nil {
			mapErr(err)
			return
		}
	}

	s.metrics.IncStream()
	s.metrics.IncRewrite()
	s.serve(x.w, entryFromResult(sess.Result()), "stream")
}
