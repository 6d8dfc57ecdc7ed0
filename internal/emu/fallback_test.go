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
