package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// backendClient drives an e9patch backend subprocess over its stdin /
// stdout pipe using the line-delimited JSON-RPC protocol (internal/rpc,
// DESIGN.md §11). e9tool keeps the analysis side — checking -M and -P,
// choosing options — and ships only protocol messages to the backend,
// mirroring the E9Tool/E9Patch process split.
type backendClient struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	nextID int
}

type backendResponse struct {
	Result json.RawMessage `json:"result"`
	Error  *struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func startBackend(path string) (*backendClient, error) {
	cmd := exec.Command(path)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting backend %s: %w", path, err)
	}
	return &backendClient{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// call sends one request with an id and waits for its response line.
// A wire-level error object becomes a client-side error carrying the
// backend's classification code.
func (c *backendClient) call(method string, params any) (json.RawMessage, error) {
	c.nextID++
	req := map[string]any{
		"jsonrpc": "2.0",
		"method":  method,
		"id":      c.nextID,
	}
	if params != nil {
		req["params"] = params
	}
	line, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	line = append(line, '\n')
	if _, err := c.in.Write(line); err != nil {
		return nil, fmt.Errorf("backend %s request: %w", method, err)
	}
	reply, err := c.out.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("backend %s: no response: %w", method, err)
	}
	var resp backendResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return nil, fmt.Errorf("backend %s: bad response %q: %w", method, reply, err)
	}
	if resp.Error != nil {
		return nil, fmt.Errorf("backend %s failed (code %d): %s", method, resp.Error.Code, resp.Error.Message)
	}
	return resp.Result, nil
}

func (c *backendClient) close() error {
	c.in.Close()
	return c.cmd.Wait()
}

// backendOptions is what e9tool can express over the wire: the -M
// expression, which the backend compiles itself, and the empty or
// counter templates. Spec files, call payloads and the other templates
// lower to in-process state and cannot cross a pipe.
type backendOptions struct {
	match       string
	output      string
	granularity int
	skipPrefix  uint64
	disasm      string
	b0Fallback  bool
	counter     uint64
}

// runBackend performs a full option* binary patch emit session against
// an e9patch subprocess and prints a summary from the wire responses.
func runBackend(path, input string, o backendOptions) error {
	absIn, err := filepath.Abs(input)
	if err != nil {
		return err
	}
	absOut, err := filepath.Abs(o.output)
	if err != nil {
		return err
	}
	c, err := startBackend(path)
	if err != nil {
		return err
	}
	// Backend already dead on a protocol error: surface the RPC failure,
	// not the exit status.
	defer c.close()

	opt := map[string]any{"granularity": o.granularity}
	if o.skipPrefix != 0 {
		opt["skipPrefix"] = o.skipPrefix
	}
	if o.disasm != "" {
		opt["disasm"] = o.disasm
	}
	if o.b0Fallback {
		opt["b0Fallback"] = true
	}
	if o.counter != 0 {
		opt["counter"] = o.counter
	}
	if _, err := c.call("option", opt); err != nil {
		return err
	}
	binRes, err := c.call("binary", map[string]any{"filename": absIn})
	if err != nil {
		return err
	}
	var bin struct {
		Size     int64 `json:"size"`
		Insts    int   `json:"insts"`
		BadBytes int   `json:"badBytes"`
	}
	if err := json.Unmarshal(binRes, &bin); err != nil {
		return fmt.Errorf("backend binary: bad result: %w", err)
	}
	patchRes, err := c.call("patch", map[string]any{"match": o.match})
	if err != nil {
		return err
	}
	var sel struct {
		Matched  int `json:"matched"`
		Selected int `json:"selected"`
	}
	if err := json.Unmarshal(patchRes, &sel); err != nil {
		return fmt.Errorf("backend patch: bad result: %w", err)
	}
	emitRes, err := c.call("emit", map[string]any{"output": absOut})
	if err != nil {
		return err
	}
	var emit struct {
		OutputSize  int64    `json:"outputSize"`
		Trampolines int      `json:"trampolines"`
		Patched     int      `json:"patched"`
		Failed      int      `json:"failed"`
		Mappings    int      `json:"mappings"`
		Warnings    []string `json:"warnings"`
	}
	if err := json.Unmarshal(emitRes, &emit); err != nil {
		return fmt.Errorf("backend emit: bad result: %w", err)
	}
	if err := c.close(); err != nil {
		return fmt.Errorf("backend exit: %w", err)
	}

	fmt.Printf("backend: matched %d of %d instructions; patched %d; failed %d\n",
		sel.Selected, bin.Insts, emit.Patched, emit.Failed)
	fmt.Printf("backend: %d trampolines, %d mappings; size %d -> %d bytes\n",
		emit.Trampolines, emit.Mappings, bin.Size, emit.OutputSize)
	for _, w := range emit.Warnings {
		fmt.Fprintf(os.Stderr, "e9tool: warning: %s\n", w)
	}
	return nil
}
