package e9patch

import (
	"bytes"
	"errors"
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// TestDisasmLinearByteIdentical pins the tentpole's compatibility bar
// at the library boundary: the zero-valued config, the explicit
// "linear" mode, and every parallelism width produce byte-identical
// rewrites.
func TestDisasmLinearByteIdentical(t *testing.T) {
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.BuildStatic(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Rewrite(prog.ELF, Config{Select: SelectJumps})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []DisasmMode{"", DisasmLinear} {
		for _, width := range []int{1, 2, 8} {
			res, err := Rewrite(prog.ELF, Config{Select: SelectJumps, Disasm: mode, Parallelism: width})
			if err != nil {
				t.Fatalf("mode %q width %d: %v", mode, width, err)
			}
			if !bytes.Equal(res.Output, base.Output) {
				t.Fatalf("mode %q width %d: output differs from the zero-config rewrite", mode, width)
			}
			if res.Disasm != string(DisasmLinear) {
				t.Errorf("mode %q: Result.Disasm = %q", mode, res.Disasm)
			}
			if res.Recovery != nil {
				t.Errorf("mode %q: linear rewrite reports superset stats", mode)
			}
		}
	}
}

// TestDisasmUnknownModeRejected: a bad mode string fails at the
// configuration boundary as ErrUnsupported, before any parsing work.
func TestDisasmUnknownModeRejected(t *testing.T) {
	prog := smallCETProgram(t, false)
	_, err := Rewrite(prog, Config{Select: SelectJumps, Disasm: "recursive"})
	if !errors.Is(err, ErrUnsupportedBinary) {
		t.Fatalf("err = %v, want ErrUnsupportedBinary", err)
	}
	if _, err := ParseDisasmMode("superset-cet"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDisasmMode("Superset"); err == nil {
		t.Fatal("case-mangled mode accepted")
	}
}

// smallCETProgram assembles a runnable CET-style program: endbr64 at
// every function prologue and after the indirect call's return point,
// heap writes and branches to patch, output at the end.
func smallCETProgram(t *testing.T, shared bool) []byte {
	t.Helper()
	const base = 0x401000
	a := x86.NewAsm(base)
	a.Endbr64()
	a.MovRegImm32(x86.RDI, 64)
	a.MovRegImm64(x86.R11, workload.RTMalloc)
	a.CallReg(x86.R11)
	a.MovRegReg64(x86.RBX, x86.RAX)
	a.MovRegImm32(x86.RCX, 0)
	a.Endbr64() // landing pad after the indirect call's return point
	loop := a.NewLabel()
	a.Bind(loop)
	a.MovMemReg64(x86.M(x86.RBX, 0), x86.RCX) // heap-write patch site
	a.AddRegImm64(x86.RCX, 3)
	a.CmpRegImm64(x86.RCX, 60)
	a.JccShort(x86.CondL, loop) // jump patch site
	a.MovRegReg64(x86.RDI, x86.RCX)
	a.MovRegImm64(x86.R11, workload.RTOutput)
	a.CallReg(x86.R11)
	a.Ret()
	code := a.MustFinish()

	raw, err := elf64.Build(elf64.BuildSpec{
		Shared:   shared,
		Text:     code,
		EntryOff: 0,
		Data:     make([]byte, 64),
		BSSSize:  0x1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestPlanModeBinding: a plan records its recovery mode and universe
// digest; Apply re-derives the universe and rejects a plan replayed
// under a different mode or against a tampered digest.
func TestPlanModeBinding(t *testing.T) {
	prog := smallCETProgram(t, false)
	cfg := Config{Select: SelectJumps, Disasm: DisasmSuperset, ReserveVA: workload.ReserveVA()}
	p, err := Plan(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Disasm != string(DisasmSuperset) || p.DisasmDigest == "" {
		t.Fatalf("plan does not bind its mode: disasm=%q digest=%q", p.Disasm, p.DisasmDigest)
	}

	// The honest replay works.
	if _, err := Apply(prog, p); err != nil {
		t.Fatalf("honest apply: %v", err)
	}

	// Mode flipped: the digest covers the mode, so the universe check
	// fails even before any instruction-set difference matters.
	flipped := *p
	flipped.Disasm = string(DisasmLinear)
	if _, err := Apply(prog, &flipped); !errors.Is(err, ErrMalformedBinary) {
		t.Fatalf("cross-mode apply: err = %v, want ErrMalformedBinary", err)
	}
	flipped.Disasm = string(DisasmSupersetCET)
	if _, err := Apply(prog, &flipped); !errors.Is(err, ErrMalformedBinary) {
		t.Fatalf("cross-mode apply (cet): err = %v, want ErrMalformedBinary", err)
	}

	// Digest tampered: rejected.
	tampered := *p
	b := []byte(tampered.DisasmDigest)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	tampered.DisasmDigest = string(b)
	if _, err := Apply(prog, &tampered); !errors.Is(err, ErrMalformedBinary) {
		t.Fatalf("tampered digest: err = %v, want ErrMalformedBinary", err)
	}

	// A plan without its mode and digest is not bound to a universe:
	// both entry points refuse it rather than replay it under another.
	unbound := *p
	unbound.Disasm = ""
	unbound.DisasmDigest = ""
	if _, err := Apply(prog, &unbound); !errors.Is(err, ErrMalformedBinary) {
		t.Fatalf("apply without mode and digest: err = %v, want ErrMalformedBinary", err)
	}
	if _, err := ApplyTrusted(prog, &unbound); !errors.Is(err, ErrMalformedBinary) {
		t.Fatalf("trusted apply without mode and digest: err = %v, want ErrMalformedBinary", err)
	}

	// A linear plan round-trips with its digest too.
	lp, err := Plan(prog, Config{Select: SelectJumps, ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	if lp.Disasm != string(DisasmLinear) || lp.DisasmDigest == "" {
		t.Fatalf("linear plan unbound: %q %q", lp.Disasm, lp.DisasmDigest)
	}
	if _, err := Apply(prog, lp); err != nil {
		t.Fatalf("linear apply: %v", err)
	}
}

// TestSupersetRewriteReportsStats: the one-shot Result surfaces the
// recovery statistics for the superset family.
func TestSupersetRewriteReportsStats(t *testing.T) {
	prog := smallCETProgram(t, false)
	res, err := Rewrite(prog, Config{Select: SelectJumps, Disasm: DisasmSuperset, ReserveVA: workload.ReserveVA()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disasm != string(DisasmSuperset) {
		t.Errorf("Result.Disasm = %q", res.Disasm)
	}
	if res.Recovery == nil {
		t.Fatal("no recovery stats for a superset rewrite")
	}
	if res.Recovery.Kept == 0 || res.Recovery.Decoded < res.Recovery.Kept {
		t.Errorf("stats inconsistent: %+v", res.Recovery)
	}
}
