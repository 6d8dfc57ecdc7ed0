package emu

import (
	"testing"

	"e9patch/internal/x86"
)

// TestFallbackImpliesUnsafe holds emit and flagEffects to each other:
// every instruction emit sends to the interpreter fallback must be
// unsafe for the liveness scan, or the scan could elide a flag
// computation that the fallback (or the error it raises) makes
// observable. It sweeps every one-byte and 0F opcode × ModRM reg field
// × {register, memory} operand, with and without REX.W, and lifts each
// instruction that decodes as a block of its own.
func TestFallbackImpliesUnsafe(t *testing.T) {
	var lifted, fellBack int
	for _, esc := range [][]byte{nil, {0x0F}} {
		for op := 0; op < 256; op++ {
			for reg := byte(0); reg < 8; reg++ {
				for _, mod := range []byte{0xC0, 0x00} { // rax; [rax]
					for _, rex := range [][]byte{nil, {0x48}} {
						code := append(append([]byte{}, rex...), esc...)
						code = append(code, byte(op), mod|reg<<3)
						code = append(code, make([]byte, 12)...) // disp/imm bytes
						inst, err := x86.Decode(code, 0x401000)
						if err != nil {
							continue
						}
						e := newIREngine()
						c := &comp{e: e, b: &block{insts: []x86.Inst{inst}}}
						c.analyzeFlags()
						c.emit(0)
						if e.Stats.Fallbacks == 0 {
							lifted++
							continue
						}
						fellBack++
						if _, _, unsafe := flagEffects(&inst); !unsafe {
							t.Errorf("% x: emit falls back to the interpreter but flagEffects calls it safe", inst.Bytes)
						}
					}
				}
			}
		}
	}
	t.Logf("%d encodings lifted, %d to the fallback", lifted, fellBack)
	if lifted == 0 || fellBack == 0 {
		t.Fatalf("degenerate sweep: %d lifted, %d fallbacks", lifted, fellBack)
	}
}

// TestFusedPairsCannotLeaveEarly holds the fuser to the same table: a
// fused ALU-jcc pair is one micro-op that retires both instructions,
// so its first instruction must have no memory operand (no fault, no
// flushing store) and be safe for the liveness scan. It sweeps the
// encodings TestFallbackImpliesUnsafe does, each before a jcc rel8 and
// a jcc rel32.
func TestFusedPairsCannotLeaveEarly(t *testing.T) {
	accepted := 0
	for _, jccBytes := range [][]byte{{0x74, 0x00}, {0x0F, 0x8C, 0, 0, 0, 0}} {
		jcc, err := x86.Decode(jccBytes, 0x402000)
		if err != nil {
			t.Fatal(err)
		}
		for _, esc := range [][]byte{nil, {0x0F}} {
			for op := 0; op < 256; op++ {
				for reg := byte(0); reg < 8; reg++ {
					for _, mod := range []byte{0xC0, 0x00} { // rax; [rax]
						for _, pre := range [][]byte{nil, {0x48}, {0x66}} {
							code := append(append([]byte{}, pre...), esc...)
							code = append(code, byte(op), mod|reg<<3)
							code = append(code, make([]byte, 12)...)
							inst, err := x86.Decode(code, 0x401000)
							if err != nil || !fusable(&inst, &jcc) {
								continue
							}
							accepted++
							mem := inst.Attrs&x86.AttrModRM != 0 && !rmIsReg(&inst)
							if _, _, unsafe := flagEffects(&inst); mem || unsafe {
								t.Errorf("% x: fused before a jcc but memory operand %v, unsafe %v", inst.Bytes, mem, unsafe)
							}
						}
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("the fuser accepted no pair")
	}
	t.Logf("%d encodings fuse with a jcc", accepted)
}
