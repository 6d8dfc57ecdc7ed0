package e9patch

import (
	"context"
	"errors"
	"strings"
	"testing"

	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestRewriteContextBackground pins that RewriteTo with a live context
// and a nil writer is byte-identical to plain Rewrite.
func TestRewriteContextBackground(t *testing.T) {
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Select: SelectJumps, ReserveVA: workload.ReserveVA()}
	plain, err := Rewrite(prog.ELF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := RewriteTo(context.Background(), nil, prog.ELF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain.Output) != string(ctxed.Output) {
		t.Fatal("RewriteTo(Background, nil) diverged from Rewrite")
	}
}

// TestRewriteContextCancelled verifies that a context cancelled during
// the match phase aborts the pipeline before emit: no Result comes
// back, and the error wraps context.Canceled.
func TestRewriteContextCancelled(t *testing.T) {
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sel := func(insts []x86.Loc) []int {
		cancel() // cancel mid-pipeline, after disasm but before patch
		return SelectJumps(insts)
	}
	res, err := RewriteTo(ctx, nil, prog.ELF, Config{Select: sel})
	if err == nil {
		t.Fatal("expected cancellation error, got success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if res != nil {
		t.Fatal("cancelled rewrite returned a partial Result")
	}
}

// TestRewriteContextPreCancelled verifies the cheap early-out: an
// already-cancelled context never reaches the parser.
func TestRewriteContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sel := func(insts []x86.Loc) []int {
		t.Fatal("selector ran under a pre-cancelled context")
		return nil
	}
	if _, err := RewriteTo(ctx, nil, []byte("not an elf"), Config{Select: sel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSelectAddressesPIEWarning covers the file-relative address trap:
// SelectAddresses with un-biased addresses on a PIE binary selects
// nothing, and Result.Warnings says why.
func TestSelectAddressesPIEWarning(t *testing.T) {
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	// Find a real patchable location (runtime coordinates).
	probe, err := Rewrite(prog.ELF, Config{Select: SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Locations) == 0 {
		t.Fatal("probe rewrite selected nothing")
	}
	runtimeAddr := probe.Locations[0].Addr
	if runtimeAddr < PIEBase {
		t.Fatalf("probe location %#x not in runtime coordinates", runtimeAddr)
	}
	fileAddr := runtimeAddr - PIEBase

	// File-relative address on a PIE binary: nothing selected, warning.
	res, err := Rewrite(prog.ELF, Config{Select: SelectAddresses(fileAddr)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total != 0 {
		t.Fatalf("file-relative address unexpectedly selected %d locations", res.Stats.Total)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "file-relative") {
		t.Fatalf("want file-relative warning, got %q", res.Warnings)
	}

	// Runtime address: selected, no warning.
	res, err = Rewrite(prog.ELF, Config{Select: SelectAddresses(runtimeAddr)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total != 1 {
		t.Fatalf("runtime address selected %d locations, want 1", res.Stats.Total)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %q", res.Warnings)
	}

	// Non-PIE binary with a genuinely absent address: no warning.
	exe, err := workload.BuildKernel("branchy", false)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Rewrite(exe.ELF, Config{Select: SelectAddresses(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total != 0 || len(res.Warnings) != 0 {
		t.Fatalf("non-PIE: total %d warnings %q", res.Stats.Total, res.Warnings)
	}
}
