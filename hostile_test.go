package e9patch

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e9patch/internal/e9err"
	"e9patch/internal/elf64"
	"e9patch/internal/patch"
	"e9patch/internal/workload"
)

// branchyELF builds the branchy workload kernel: a binary with enough
// patchable jumps that rewriting it emits real writes and trampolines.
func branchyELF(t *testing.T) []byte {
	t.Helper()
	prog, err := workload.BuildKernel("branchy", true)
	if err != nil {
		t.Fatal(err)
	}
	return prog.ELF
}

// classify returns which taxonomy class err falls under, or "" when it
// matches none — the hostile-input contract is that every error leaving
// the public API on bad input classifies as malformed, unsupported or
// resource-limit, and never as internal.
func classify(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrInternal):
		return "internal"
	case errors.Is(err, ErrMalformedBinary):
		return "malformed"
	case errors.Is(err, ErrUnsupportedBinary):
		return "unsupported"
	case errors.Is(err, ErrResourceLimit):
		return "limit"
	}
	return ""
}

// requireContained fails the test unless err (from rewriting input) is
// nil or a classified input/limit error. An internal error means a
// panic was contained by the recovery boundary or a bug was promoted —
// either way a crasher to fix, not a hostile input rejected.
func requireContained(t *testing.T, name string, err error) {
	t.Helper()
	switch classify(err) {
	case "ok", "malformed", "unsupported", "limit":
	case "internal":
		var ee *Error
		if errors.As(err, &ee) && ee.Recovered() {
			t.Errorf("%s: panic contained but not fixed: %v\n%s", name, err, ee.Stack)
		} else {
			t.Errorf("%s: internal error on hostile input: %v", name, err)
		}
	default:
		t.Errorf("%s: unclassified error escaped the taxonomy: %v", name, err)
	}
}

// hostileCorpus loads every checked-in corpus binary.
func hostileCorpus(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "hostile", "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 14 {
		t.Fatalf("hostile corpus has %d files, want at least 14 (regenerate with `go run ./testdata/hostile/gen`)", len(paths))
	}
	corpus := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		corpus[filepath.Base(p)] = data
	}
	return corpus
}

// TestHostileCorpus rewrites every corpus file under every disassembly
// mode: the valid control and the hostile-text variants (well-formed
// containers whose .text is built to make recovery slow) must succeed
// and every other variant must come back with a classified error — no
// panic escapes, no ErrInternal. An output of the rewriter must come
// back as unsupported.
func TestHostileCorpus(t *testing.T) {
	for name, data := range hostileCorpus(t) {
		for _, mode := range []DisasmMode{DisasmLinear, DisasmSuperset, DisasmSupersetCET} {
			_, err := Rewrite(data, Config{Select: SelectJumps, Disasm: mode})
			requireContained(t, name+"/"+string(mode), err)
			if (name == "valid.bin" || strings.HasPrefix(name, "recover-")) && err != nil {
				t.Errorf("%s/%s: well-formed binary failed to rewrite: %v", name, mode, err)
			}
			if name == "already-rewritten.bin" && !errors.Is(err, ErrUnsupportedBinary) {
				t.Errorf("%s/%s: rewritten input not refused as unsupported: %v", name, mode, err)
			}
		}
	}
}

// TestHostileSupersetShapes bounds superset recovery on texts built to
// make it slow: a 1 MB nop sled into an invalid byte, a 1 MB backward
// jump ladder off an invalid byte and a forward jump chain each rewrite
// in under 2 s in both superset modes (the pass-until-stable refinement
// the table replaced took 20 s on a 32 KB sled), and a phase deadline
// ends the recovery with a classified error wherever it expires.
func TestHostileSupersetShapes(t *testing.T) {
	for _, shape := range []struct {
		name string
		text []byte
	}{
		{"sled", workload.NopSled(1 << 20)},
		{"ladder", workload.BackwardLadder(1 << 20)},
		// Everything in the chain is valid, so it is kept smaller: the
		// rewriter holds an x86.Inst for every survivor.
		{"chain", workload.ForwardChain(256<<10, false)},
	} {
		bin, err := elf64.Build(elf64.BuildSpec{Text: shape.text, Data: make([]byte, 32), BSSSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []DisasmMode{DisasmSuperset, DisasmSupersetCET} {
			label := shape.name + "/" + string(mode)
			// No jump in these texts is a heap write: recovery is the op.
			cfg := Config{Select: SelectHeapWrites, Disasm: mode}
			start := time.Now()
			if _, err := Rewrite(bin, cfg); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("%s: rewrite took %v, want < 2s", label, d)
			}
			// 1 ns expires in the sweep; 50 ms, on a slow enough machine,
			// in the refinement or the closure. Finishing first is fine.
			for _, timeout := range []time.Duration{time.Nanosecond, 50 * time.Millisecond} {
				cfg.Limits = Limits{PhaseTimeout: timeout}
				start := time.Now()
				_, err := Rewrite(bin, cfg)
				if d := time.Since(start); d > 2*time.Second {
					t.Errorf("%s: rewrite under PhaseTimeout %v took %v", label, timeout, d)
				}
				if err == nil && timeout > time.Nanosecond {
					continue
				}
				var ee *Error
				if !errors.As(err, &ee) || ee.Reason != e9err.ReasonPhaseDeadline {
					t.Errorf("%s: PhaseTimeout %v: error %v, want reason %q", label, timeout, err, e9err.ReasonPhaseDeadline)
				}
			}
		}
	}
}

// TestHostileForceB0Sled bounds the B0 dispatch table on the input that
// makes it largest: a 128 KB nop sled with every instruction forced to
// int3 is 131 071 entries, which loader.Encode used to order with an
// exchange sort (26.6 s for this rewrite; 95 ms with a real sort).
func TestHostileForceB0Sled(t *testing.T) {
	bin, err := elf64.Build(elf64.BuildSpec{Text: workload.NopSled(128 << 10), Data: make([]byte, 32), BSSSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Select: SelectAll}
	cfg.Patch.ForceB0 = true
	start := time.Now()
	res, err := Rewrite(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("rewrite took %v, want < 2s", d)
	}
	if res.Stats.Total < 128<<10-1 || res.Stats.ByTactic[patch.TacticB0] != res.Stats.Total {
		t.Errorf("B0 patched %d of %d sites, want all of the sled", res.Stats.ByTactic[patch.TacticB0], res.Stats.Total)
	}
}

// TestHostileTruncations feeds every prefix of a valid binary through
// the rewriter (densely over the header region, sampled beyond it).
func TestHostileTruncations(t *testing.T) {
	valid := hostileCorpus(t)["valid.bin"]
	for n := 0; n < len(valid); n++ {
		if n > 512 && n%101 != 0 {
			continue
		}
		_, err := Rewrite(valid[:n], Config{Select: SelectJumps})
		requireContained(t, "truncate:"+itoa(n), err)
	}
}

// TestHostileHeaderBitFlips flips each bit of the ELF header and the
// program-header table in turn. Any single-bit lie must either still
// rewrite (benign field) or fail classified.
func TestHostileHeaderBitFlips(t *testing.T) {
	valid := hostileCorpus(t)["valid.bin"]
	const region = 64 + 3*56 // ehdr + the three phdrs
	for off := 0; off < region; off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 1 << bit
			_, err := Rewrite(mut, Config{Select: SelectJumps})
			requireContained(t, "flip:"+itoa(off)+"."+itoa(bit), err)
		}
	}
}

// TestHostilePlans covers the second untrusted input surface: patch
// plans. Garbage, version skew and out-of-text writes must all come
// back classified from Decode/Apply (TestPlanTamperSweep and
// FuzzPlanDecode take the serialized form apart byte by byte).
func TestHostilePlans(t *testing.T) {
	if _, err := DecodePlan([]byte("not a plan")); !errors.Is(err, ErrMalformedBinary) {
		t.Errorf("garbage plan: %v, want ErrMalformedBinary", err)
	}
	digest := strings.Repeat("0", 64)
	future, err := (&PatchPlan{Version: 9999, InputSHA256: digest, DisasmDigest: digest}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan(future); !errors.Is(err, ErrUnsupportedBinary) {
		t.Errorf("future plan version: %v, want ErrUnsupportedBinary", err)
	}
	// A version 1 plan was JSON. It is a plan, of a schema this build no
	// longer reads: unsupported, with the way out in the message.
	if _, err := DecodePlan([]byte(`{"version": 1, "sites": []}`)); !errors.Is(err, ErrUnsupportedBinary) || !strings.Contains(err.Error(), "re-emit the plan") {
		t.Errorf("version 1 (JSON) plan: %v, want ErrUnsupportedBinary saying to re-emit the plan", err)
	}

	bin := branchyELF(t)
	p, err := Plan(bin, Config{Select: SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(bin, nil); !errors.Is(err, ErrMalformedBinary) {
		t.Errorf("nil plan: %v, want ErrMalformedBinary", err)
	}
	writes := 0
	for i := range p.Sites {
		for j := range p.Sites[i].Writes {
			p.Sites[i].Writes[j].Addr = 0xFFFFFFFFFFFF0000 // far outside .text
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("plan recorded no writes; the branchy kernel should be patchable")
	}
	if _, err := Apply(bin, p); !errors.Is(err, ErrMalformedBinary) {
		t.Errorf("out-of-text plan writes: %v, want ErrMalformedBinary", err)
	}

	tampered, err := Plan(bin, Config{Select: SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tampered.Sites {
		tampered.Sites[i].Tactic = "no-such-tactic"
	}
	if _, err := Apply(bin, tampered); !errors.Is(err, ErrMalformedBinary) {
		t.Errorf("unknown plan tactic: %v, want ErrMalformedBinary", err)
	}
}

// TestLibraryLimits exercises each Config.Limits bound at the library
// layer and checks both the sentinel and the machine-readable reason.
func TestLibraryLimits(t *testing.T) {
	valid := hostileCorpus(t)["valid.bin"]
	bin := branchyELF(t)

	cases := []struct {
		name   string
		input  []byte
		limits Limits
		reason string
	}{
		{"input-too-large", valid, Limits{MaxInputBytes: 16}, e9err.ReasonInputTooLarge},
		{"text-too-large", valid, Limits{MaxTextBytes: 4}, e9err.ReasonTextTooLarge},
		{"too-many-sites", bin, Limits{MaxPatchSites: 1}, e9err.ReasonTooManySites},
		{"trampoline-budget", bin, Limits{MaxTrampolineBytes: 1}, e9err.ReasonTrampolineBudget},
		{"phase-deadline", valid, Limits{PhaseTimeout: time.Nanosecond}, e9err.ReasonPhaseDeadline},
	}
	for _, tc := range cases {
		_, err := Rewrite(tc.input, Config{Select: SelectJumps, Limits: tc.limits})
		if !errors.Is(err, ErrResourceLimit) {
			t.Errorf("%s: error %v, want ErrResourceLimit", tc.name, err)
			continue
		}
		var ee *Error
		if !errors.As(err, &ee) || ee.Reason != tc.reason {
			t.Errorf("%s: reason %q, want %q (err %v)", tc.name, ee.Reason, tc.reason, err)
		}
	}

	// The same limits left at zero must not reject anything.
	if _, err := Rewrite(valid, Config{Select: SelectJumps}); err != nil {
		t.Errorf("no limits: %v, want success", err)
	}

	// Limits is the one trampoline budget: Patch.TrampolineBudget does
	// not reach the patcher, and the budget an error names is the one
	// that tripped.
	free, err := Rewrite(bin, Config{Select: SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rewrite(bin, Config{Select: SelectJumps, Patch: patch.Options{TrampolineBudget: 1}})
	if err != nil {
		t.Fatalf("Patch.TrampolineBudget without Limits: %v, want the unlimited rewrite", err)
	}
	if !bytes.Equal(res.Output, free.Output) {
		t.Error("Patch.TrampolineBudget without Limits changed the output")
	}
	_, err = Rewrite(bin, Config{Select: SelectJumps, Limits: Limits{MaxTrampolineBytes: 1}})
	if !errors.Is(err, ErrResourceLimit) || !strings.Contains(err.Error(), "the 1-byte budget") {
		t.Errorf("Limits.MaxTrampolineBytes 1: %v, want a limit error naming the 1-byte budget", err)
	}
}

// FuzzRewriteHostileELF explores the malformed-ELF input space, seeded
// with the checked-in corpus. The property under test is containment:
// Rewrite may reject an input, but only with a classified error — an
// escaped panic or ErrInternal is a crasher — and an output it returns
// must pass the output checker (internal/verify). Plain `go test` runs the
// seed corpus; `go test -fuzz=FuzzRewriteHostileELF` explores further.
func FuzzRewriteHostileELF(f *testing.F) {
	for _, data := range hostileCorpus(f) {
		f.Add(data, 1)
	}
	f.Fuzz(func(t *testing.T, data []byte, gran int) {
		if gran > MaxGranularity {
			gran = MaxGranularity
		}
		cfg := Config{Select: SelectJumps, Granularity: gran}
		res, err := Rewrite(data, cfg)
		requireContained(t, "fuzz", err)
		if err == nil {
			verifyRewrite(t, "fuzz", data, cfg, res)
		}
	})
}

// TestHostileRewrittenInput: an output of the rewriter is refused as
// input by every entry point. Rewriting branchy's A1 output again under
// A2 used to succeed, and the result ran unmapped memory at a
// first-round trampoline page (0x408010, or 0x55555555c010 for the PIE
// build) that the second table no longer mapped.
func TestHostileRewrittenInput(t *testing.T) {
	ctx := context.Background()
	a2 := Config{Select: SelectHeapWrites}
	for _, pie := range []bool{false, true} {
		t.Run(map[bool]string{false: "nonPIE", true: "PIE"}[pie], func(t *testing.T) {
			prog, err := workload.BuildKernel("branchy", pie)
			if err != nil {
				t.Fatal(err)
			}
			first, err := Rewrite(prog.ELF, Config{Select: SelectJumps})
			if err != nil {
				t.Fatal(err)
			}
			out := first.Output
			refused := func(entry string, err error) {
				t.Helper()
				if !errors.Is(err, ErrUnsupportedBinary) || !strings.Contains(err.Error(), "rewrite the original") {
					t.Errorf("%s: rewritten input not refused as unsupported: %v", entry, err)
				}
			}
			_, err = Rewrite(out, a2)
			refused("Rewrite", err)
			_, err = RewriteTo(ctx, io.Discard, out, a2)
			refused("RewriteTo", err)
			_, err = Plan(out, a2)
			refused("Plan", err)
			_, err = NewStream(ctx, out, a2)
			refused("NewStream", err)

			// A plan bound to the output reaches the apply entry points.
			p, err := Plan(prog.ELF, a2)
			if err != nil {
				t.Fatal(err)
			}
			p.BindInput(out)
			_, err = Apply(out, p)
			refused("Apply", err)
			_, err = ApplyTo(ctx, io.Discard, out, p)
			refused("ApplyTo", err)
			_, err = ApplyTrusted(out, p)
			refused("ApplyTrusted", err)
		})
	}
}

// TestHostileLoaderBlob checks the appended-blob trailer parser against
// a rewritten binary whose trailer bytes have been tampered with.
func TestHostileLoaderBlob(t *testing.T) {
	valid := hostileCorpus(t)["valid.bin"]
	res, err := Rewrite(valid, Config{Select: SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output
	if _, ok := elf64.AppendedBlob(out); !ok {
		t.Skip("rewrite appended no blob")
	}
	for _, off := range []int{24, 16, 8, 1} {
		mut := append([]byte(nil), out...)
		mut[len(mut)-off] ^= 0xFF
		// Either the tampered trailer is rejected outright or the blob
		// bounds still land inside the file; never a slice panic.
		if blob, ok := elf64.AppendedBlob(mut); ok && len(blob) > len(mut) {
			t.Fatalf("tampered trailer at -%d returned out-of-range blob", off)
		}
	}
}

// itoa avoids pulling strconv into the test imports for two call sites.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
