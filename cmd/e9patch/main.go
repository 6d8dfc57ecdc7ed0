// Command e9patch is the E9Patch backend: it reads a line-delimited
// JSON-RPC message stream from stdin (option* binary (patch|reserve)*
// emit — see internal/rpc and DESIGN.md §12) and writes one response
// per message to stdout. It takes no arguments: the stream carries every
// setting, names the files to read and write, and says what to patch,
// so a frontend such as e9tool drives the whole rewrite over the pipe:
//
//	e9tool -backend e9patch -M 'jcc' -o out.bin input.bin
//	e9patch < session.rpc
package main

import (
	"context"
	"fmt"
	"os"

	"e9patch/internal/rpc"
)

func main() {
	// A bare `e9patch` at a terminal prints usage instead of waiting
	// silently on stdin, and so does any argument: settings travel in
	// the stream's option message.
	if len(os.Args) > 1 || !stdinStreamed() {
		fmt.Fprintln(os.Stderr, `usage: e9patch < MESSAGE-STREAM

e9patch is a backend: it takes no arguments and consumes line-delimited
JSON-RPC messages on stdin,
  option* binary (patch|reserve)* emit
writing one response per message to stdout. See DESIGN.md §12 for the
message grammar; e9tool -backend PATH is a frontend that drives it.`)
		os.Exit(2)
	}
	if err := rpc.Serve(context.Background(), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "e9patch: %v\n", err)
		os.Exit(1)
	}
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
