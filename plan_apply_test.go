package e9patch

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"e9patch/internal/plan"
	"e9patch/internal/workload"
)

// Differential suite for the plan/apply split (make plancheck): for
// every corpus binary × tactic config × parallelism width,
// Apply(Plan(input)) must be byte-identical to the one-pass Rewrite and
// to the committed output hashes, the plan encoding must be
// deterministic (and independent of the worker count), and every plan
// that is applied has first been through Encode and DecodePlan.

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// planCorpus returns the same binaries the parallel differential suite
// uses: the five kernel archetypes, the eviction-hostile synthetic,
// and two SPEC profiles with thousands of sites.
func planCorpus(t testing.TB) []struct {
	name string
	bin  []byte
} {
	t.Helper()
	var corpus []struct {
		name string
		bin  []byte
	}
	add := func(name string, bin []byte) {
		corpus = append(corpus, struct {
			name string
			bin  []byte
		}{name, bin})
	}
	for _, arch := range []string{"branchy", "memstream", "matrix", "pointer", "callheavy"} {
		prog, err := workload.BuildKernel(arch, arch == "matrix" || arch == "pointer")
		if err != nil {
			t.Fatal(err)
		}
		add(arch, prog.ELF)
	}
	add("hostile", hostileELF(t))
	for _, pc := range []struct {
		profile string
		scale   float64
	}{{"gcc", 0.05}, {"gamess", 0.05}} {
		p, err := workload.ProfileByName(pc.profile)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.BuildStatic(p, pc.scale)
		if err != nil {
			t.Fatal(err)
		}
		add(pc.profile, prog.ELF)
	}
	return corpus
}

// TestPlanApplyEquivalence is the tentpole differential: across the
// full corpus × tactic-config matrix at parallelism 1, 2 and 8, the
// two-phase pipeline must reproduce Rewrite — decide and materialize in
// one pass, no plan in between — exactly: output bytes, statistics,
// per-location outcomes, warnings and counters. The plan that is applied
// is the one DecodePlan read back from Encode's bytes, never the one in
// memory; that encoding must not depend on the width, and the decoded
// plan must encode to the same bytes again.
//
// Every cell is also anchored to testdata/rewrite_golden.json: the
// SHA-256 of Result.Output must be reproduced by Rewrite, by
// Apply(Plan) at every width, by a session read first as a plan and
// then finished, and by a Stream session fed the same locations in
// address chunks; RewriteTo, ApplyTo and the sessions' FinishTo must
// have written those same bytes to their writer. Beside each hash
// the file pins Result.OutputSize and Group.PhysBlocks, which a change
// of trampoline code alone (epilogues) leaves as they are. The hashes
// were first recorded from the pre-split monolithic reference pipeline
// in the commit before it was deleted; regenerate with `go test -run
// TestPlanApplyEquivalence -update .` only for an intentional output
// change.
func TestPlanApplyEquivalence(t *testing.T) {
	ctx := context.Background()
	goldenPath := filepath.Join("testdata", "rewrite_golden.json")
	type goldenCell struct {
		SHA256     string `json:"sha256"`
		OutputSize int    `json:"outputSize"`
		PhysBlocks int    `json:"physBlocks"`
	}
	golden := map[string]goldenCell{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	}
	cells := 0
	for _, be := range planCorpus(t) {
		for _, tc := range parallelCorpusConfigs {
			cells++
			cell := be.name + "/" + tc.name
			cfg := tc.cfg
			cfg.ReserveVA = append(cfg.ReserveVA, workload.ReserveVA()...)
			cfg.Parallelism = 1
			ref, err := Rewrite(be.bin, cfg)
			if err != nil {
				t.Fatalf("%s: rewrite: %v", cell, err)
			}
			outputHash := func(res *Result) string {
				sum := sha256.Sum256(res.Output)
				return hex.EncodeToString(sum[:])
			}
			if *updateGolden {
				golden[cell] = goldenCell{outputHash(ref), ref.OutputSize, ref.Group.PhysBlocks}
			}
			checkGolden := func(label string, res *Result) {
				t.Helper()
				want := golden[cell]
				if got := outputHash(res); got != want.SHA256 {
					t.Errorf("%s: output hash %s, golden %q (regenerate with -update if intentional)", label, got, want.SHA256)
				}
				if res.OutputSize != want.OutputSize || res.Group.PhysBlocks != want.PhysBlocks {
					t.Errorf("%s: output size %d with %d physical blocks, golden %d with %d",
						label, res.OutputSize, res.Group.PhysBlocks, want.OutputSize, want.PhysBlocks)
				}
			}
			checkGolden(cell+"/rewrite", ref)
			verifyRewrite(t, cell, be.bin, cfg, ref)

			// written completes a streamed result for comparison: the bytes
			// its writer received stand in for the Output it did not build.
			written := func(label string, res *Result, buf *bytes.Buffer) *Result {
				t.Helper()
				if res.Output != nil || res.OutputSize != buf.Len() {
					t.Errorf("%s: Output set (%d bytes) or OutputSize %d for %d written", label, len(res.Output), res.OutputSize, buf.Len())
				}
				res.Output = buf.Bytes()
				return res
			}
			var buf bytes.Buffer
			wres, err := RewriteTo(ctx, &buf, be.bin, cfg)
			if err != nil {
				t.Fatalf("%s: rewrite to: %v", cell, err)
			}
			assertSameParallelResult(t, ref, written(cell+"/rewriteto", wres, &buf), cell+"/rewriteto")

			var firstEnc []byte
			for _, par := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/p=%d", cell, par)
				cfg.Parallelism = par
				p, err := Plan(be.bin, cfg)
				if err != nil {
					t.Fatalf("%s: plan: %v", label, err)
				}
				enc, err := p.Encode()
				if err != nil {
					t.Fatalf("%s: encode: %v", label, err)
				}
				if firstEnc == nil {
					firstEnc = enc
				} else if !bytes.Equal(firstEnc, enc) {
					t.Errorf("%s: plan encoding depends on the worker count", label)
				}
				if p, err = DecodePlan(enc); err != nil {
					t.Fatalf("%s: decode: %v", label, err)
				}
				if reenc, err := p.Encode(); err != nil || !bytes.Equal(enc, reenc) {
					t.Errorf("%s: plan changed across Encode → DecodePlan → Encode (err %v)", label, err)
				}
				res, err := Apply(be.bin, p)
				if err != nil {
					t.Fatalf("%s: apply: %v", label, err)
				}
				assertSameParallelResult(t, ref, res, label)
				checkGolden(label, res)
				if res.Trampolines != p.TrampolineCount() {
					t.Errorf("%s: plan counts %d trampolines, result %d",
						label, p.TrampolineCount(), res.Trampolines)
				}
				if par == 1 {
					var buf bytes.Buffer
					wres, err := ApplyTo(ctx, &buf, be.bin, p)
					if err != nil {
						t.Fatalf("%s: apply to: %v", label, err)
					}
					assertSameParallelResult(t, ref, written(label+"/applyto", wres, &buf), label+"/applyto")
				}
			}

			// One session read twice: its plan, then its output to a
			// writer. The output is the golden; the plan, encoded after the
			// session has emitted, is the one-shot Plan's.
			label := cell + "/planfinish"
			ps, err := NewStream(ctx, be.bin, cfg)
			if err != nil {
				t.Fatalf("%s: stream: %v", label, err)
			}
			sp, err := ps.Plan(ctx)
			if err != nil {
				t.Fatalf("%s: plan: %v", label, err)
			}
			buf.Reset()
			pres, err := ps.FinishTo(ctx, &buf)
			if err != nil {
				t.Fatalf("%s: finish to: %v", label, err)
			}
			assertSameParallelResult(t, ref, written(label, pres, &buf), label)
			checkGolden(label, pres)
			if enc, err := sp.Encode(); err != nil || !bytes.Equal(enc, firstEnc) {
				t.Errorf("%s: the session's plan encodes differently from Plan's (err %v)", label, err)
			}

			// Chunked session: no selector, the reference's locations
			// arrive as address batches; finished in memory and to a writer.
			scfg := cfg
			scfg.Select = nil
			addrs := make([]uint64, len(ref.Locations))
			for i, loc := range ref.Locations {
				addrs[i] = loc.Addr
			}
			for _, toWriter := range []bool{false, true} {
				label := cell + "/stream"
				if toWriter {
					label += "to"
				}
				s, err := NewStream(ctx, be.bin, scfg)
				if err != nil {
					t.Fatalf("%s: stream: %v", label, err)
				}
				const chunk = 509
				for lo := 0; lo < len(addrs); lo += chunk {
					if _, err := s.SelectAddrs(addrs[lo:min(lo+chunk, len(addrs))]...); err != nil {
						t.Fatalf("%s: select addrs: %v", label, err)
					}
				}
				var sres *Result
				if toWriter {
					var buf bytes.Buffer
					if sres, err = s.FinishTo(ctx, &buf); err == nil {
						sres = written(label, sres, &buf)
					}
				} else {
					sres, err = s.Finish(ctx)
				}
				if err != nil {
					t.Fatalf("%s: finish: %v", label, err)
				}
				assertSameParallelResult(t, ref, sres, label)
				checkGolden(label, sres)
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(golden) != cells {
		t.Errorf("%s holds %d hashes for a %d-cell matrix (regenerate with -update)", goldenPath, len(golden), cells)
	}
}

// TestPlanRoundTripApply proves serialization fidelity on a real
// workload: a plan that went through Encode → Decode applies to the
// same bytes as the in-memory plan, so a plan can be produced on one
// machine and applied on another.
func TestPlanRoundTripApply(t *testing.T) {
	bin := planCorpus(t)[0].bin
	cfg := Config{Select: SelectHeapWrites, ReserveVA: workload.ReserveVA()}
	p, err := Plan(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Apply(bin, p)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodePlan(enc)
	if err != nil {
		t.Fatal(err)
	}
	reenc, err := p2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, reenc) {
		t.Error("plan changed across Encode → Decode → Encode")
	}
	decoded, err := Apply(bin, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Output, decoded.Output) {
		t.Error("round-tripped plan materializes different bytes")
	}
}

// TestPlanDeterminism pins the determinism contract: planning the same
// binary twice yields byte-identical encodings.
func TestPlanDeterminism(t *testing.T) {
	bin := hostileELF(t)
	cfg := Config{Select: SelectHeapWrites}
	var last []byte
	for i := 0; i < 3; i++ {
		p, err := Plan(bin, cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && !bytes.Equal(last, enc) {
			t.Fatalf("plan encoding differs between runs %d and %d", i-1, i)
		}
		last = enc
	}
}

// TestPlanGoldenJSON pins both forms of one plan against committed
// files: the JSON rendering (testdata/plan_golden.json, which is also
// what `e9dump -plan` must print) and the serialized bytes
// (testdata/plan_golden.e9plan, compared whole and reported by SHA-256).
// Regenerate with `go test -run TestPlanGoldenJSON -update .` after an
// intentional change of the schema or the wire format, and raise
// plan.Version with it.
func TestPlanGoldenJSON(t *testing.T) {
	bin := hostileELF(t)
	p, err := Plan(bin, Config{Select: SelectHeapWrites, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{filepath.Join("testdata", "plan_golden.json"), rendered},
		{filepath.Join("testdata", "plan_golden.e9plan"), enc},
	} {
		if *updateGolden {
			if err := os.WriteFile(g.file, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(want, g.got) {
			t.Errorf("plan deviates from %s: sha256 %x, golden %x (regenerate with -update if the change is intentional)",
				g.file, sha256.Sum256(g.got), sha256.Sum256(want))
		}
	}
	// The golden bytes decode to the golden rendering and encode back.
	p2, err := DecodePlan(enc)
	if err != nil {
		t.Fatal(err)
	}
	if j, err := p2.JSON(); err != nil || !bytes.Equal(j, rendered) {
		t.Errorf("decoded golden plan renders differently (err %v)", err)
	}
	if reenc, err := p2.Encode(); err != nil || !bytes.Equal(enc, reenc) {
		t.Errorf("golden plan changed across Decode → Encode (err %v)", err)
	}
}

// TestApplyValidation covers Apply's refusal surface: a plan must not
// silently materialize onto the wrong input, a tampered schema
// version, or out-of-range writes; and each recorded setting or fact
// that does not fit the input gets one class from Apply and
// ApplyTrusted alike.
func TestApplyValidation(t *testing.T) {
	bin := hostileELF(t)
	p, err := Plan(bin, Config{Select: SelectHeapWrites})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Apply(bin, nil); err == nil {
		t.Error("nil plan: want error")
	}

	other := make([]byte, len(bin))
	copy(other, bin)
	other[len(other)-1] ^= 0xFF
	if _, err := Apply(other, p); err == nil || !strings.Contains(err.Error(), "input mismatch") {
		t.Errorf("modified input: want input-mismatch error, got %v", err)
	}

	bad := *p
	bad.Version = plan.Version + 1
	if _, err := Apply(bin, &bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: want version error, got %v", err)
	}

	// An out-of-text write: caught structurally.
	oob := &PatchPlan{
		Version: plan.Version, Bias: p.Bias, TextAddr: p.TextAddr, TextLen: p.TextLen,
		InputSHA256: p.InputSHA256, Disasm: p.Disasm, DisasmDigest: p.DisasmDigest,
		Sites: []plan.Site{{Addr: p.TextAddr, Tactic: "B1", Writes: []plan.Write{
			{Addr: p.TextAddr + uint64(p.TextLen), Data: plan.Bytes{0x90}},
		}}},
	}
	if _, err := Apply(bin, oob); err == nil || !strings.Contains(err.Error(), "outside .text") {
		t.Errorf("out-of-range write: want range error, got %v", err)
	}

	// One plan, one verdict: both entry points open the input the same
	// way, so each defect below gets the same class from both. Only the
	// universe digest, which ApplyTrusted does not re-derive, may differ.
	tramp := slices.IndexFunc(p.Sites, func(s plan.Site) bool { return len(s.Trampolines) > 0 })
	if tramp < 0 {
		t.Fatal("the plan places no trampoline")
	}
	rows := []struct {
		name      string
		edit      func(q *PatchPlan)
		want      error
		msg       string
		trustedOK bool // ApplyTrusted accepts the plan
	}{
		{"granularity -5", func(q *PatchPlan) { q.Granularity = -5 }, ErrUnsupportedBinary, "granularity", false},
		{"granularity above the maximum", func(q *PatchPlan) { q.Granularity = MaxGranularity + 1 }, ErrUnsupportedBinary, "granularity", false},
		{"unknown mode", func(q *PatchPlan) { q.Disasm = "no-such-mode" }, ErrUnsupportedBinary, "no-such-mode", false},
		{"skip prefix past .text", func(q *PatchPlan) { q.SkipPrefix = uint64(q.TextLen) + 1 }, ErrMalformedBinary, "skip prefix", false},
		{"bias mismatch", func(q *PatchPlan) { q.Bias ^= PIEBase }, ErrMalformedBinary, "load bias", false},
		{"text geometry mismatch", func(q *PatchPlan) { q.TextLen++ }, ErrMalformedBinary, "text geometry", false},
		{"trampoline in the text segment", func(q *PatchPlan) {
			q.Sites = slices.Clone(q.Sites)
			q.Sites[tramp].Trampolines = slices.Clone(q.Sites[tramp].Trampolines)
			q.Sites[tramp].Trampolines[0].Addr = q.TextAddr
		}, ErrMalformedBinary, "overlaps loaded segment", false},
		{"digest mismatch", func(q *PatchPlan) { q.DisasmDigest = strings.Repeat("0", 64) }, ErrMalformedBinary, "digest mismatch", true},
	}
	for _, r := range rows {
		bad := *p
		r.edit(&bad)
		for entry, apply := range map[string]func([]byte, *PatchPlan) (*Result, error){"Apply": Apply, "ApplyTrusted": ApplyTrusted} {
			_, err := apply(bin, &bad)
			switch {
			case entry == "ApplyTrusted" && r.trustedOK:
				if err != nil {
					t.Errorf("%s, %s: %v, want success", r.name, entry, err)
				}
			case !errors.Is(err, r.want) || !strings.Contains(err.Error(), r.msg):
				t.Errorf("%s, %s: %v, want %v naming %q", r.name, entry, err, r.want, r.msg)
			}
		}
	}
}

// TestRewriteInputImmutable enforces the documented contract that
// Rewrite and RewriteTo never mutate the caller's input slice,
// across all six tactic configurations of the differential corpus.
func TestRewriteInputImmutable(t *testing.T) {
	bin := hostileELF(t)
	for _, tc := range parallelCorpusConfigs {
		pristine := make([]byte, len(bin))
		copy(pristine, bin)
		if _, err := Rewrite(bin, tc.cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(bin, pristine) {
			t.Fatalf("%s: Rewrite mutated the input slice", tc.name)
		}
		if _, err := RewriteTo(context.Background(), nil, bin, tc.cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(bin, pristine) {
			t.Fatalf("%s: RewriteTo mutated the input slice", tc.name)
		}
	}
}

// TestSizePercentZeroInput pins the InputSize == 0 guard (a zero-value
// Result must not divide by zero).
func TestSizePercentZeroInput(t *testing.T) {
	r := &Result{OutputSize: 1234}
	if got := r.SizePercent(); got != 0 {
		t.Fatalf("SizePercent with zero InputSize = %v, want 0", got)
	}
	r = &Result{InputSize: 200, OutputSize: 300}
	if got := r.SizePercent(); got != 150 {
		t.Fatalf("SizePercent = %v, want 150", got)
	}
}

// TestApplyTrusted pins the trusted apply path's contract: identical
// bytes to the verifying Apply, refusal by both entry points of a plan
// missing its input or universe binding (an unbound plan has no hash
// pinning the universe, so skipping the digest check would be unchecked
// trust), refusal of the wrong input,
// and — the reason the path exists — no universe re-derivation, pinned
// by accepting a plan whose digest was tampered but whose input
// binding still matches.
func TestApplyTrusted(t *testing.T) {
	bin := planCorpus(t)[0].bin
	sel, err := SelectMatch("jcc & short")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Select: sel, ReserveVA: workload.ReserveVA()}
	p, err := Plan(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := Apply(bin, p)
	if err != nil {
		t.Fatal(err)
	}
	trusted, err := ApplyTrusted(bin, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(verified.Output, trusted.Output) {
		t.Error("ApplyTrusted materializes different bytes than Apply")
	}

	for name, unbind := range map[string]func(*PatchPlan){
		"inputSha256":  func(q *PatchPlan) { q.InputSHA256 = "" },
		"disasm":       func(q *PatchPlan) { q.Disasm = "" },
		"disasmDigest": func(q *PatchPlan) { q.DisasmDigest = "" },
	} {
		unbound := *p
		unbind(&unbound)
		for entry, apply := range map[string]func([]byte, *PatchPlan) (*Result, error){"Apply": Apply, "ApplyTrusted": ApplyTrusted} {
			if _, err := apply(bin, &unbound); !errors.Is(err, ErrMalformedBinary) || !strings.Contains(err.Error(), "not bound") {
				t.Errorf("%s of a plan without %s: %v, want ErrMalformedBinary saying it is not bound", entry, name, err)
			}
		}
	}

	other := append([]byte(nil), bin...)
	other[len(other)-1] ^= 0xFF
	if _, err := ApplyTrusted(other, p); err == nil {
		t.Error("ApplyTrusted accepted an input that does not match the plan's binding")
	}

	tampered := *p
	tampered.DisasmDigest = strings.Repeat("0", len(p.DisasmDigest))
	if _, err := Apply(bin, &tampered); err == nil {
		t.Error("Apply must reject a tampered universe digest")
	}
	if _, err := ApplyTrusted(bin, &tampered); err != nil {
		t.Errorf("ApplyTrusted re-derived the universe it is documented to skip: %v", err)
	}
}
