package workload

import "bytes"

// Hostile texts: byte strings on which a superset refinement that
// iterates to a fixpoint pass by pass is quadratic, because every
// instruction's fate hangs on one byte at the far end of a chain as
// long as the text. The disasm complexity tests, the root hostile
// suite and testdata/hostile/gen share these definitions.

// NopSled is n-1 nops falling through into one invalid byte:
// invalidity has to travel from the last byte back to the first.
func NopSled(n int) []byte {
	code := bytes.Repeat([]byte{0x90}, n)
	code[n-1] = 0x06
	return code
}

// BackwardLadder is `nop; (invalid)` followed by `jmp -4` repeated,
// each jump landing on the previous one and the first on the nop:
// invalidity travels from the first byte to the last, over branch
// edges.
func BackwardLadder(n int) []byte {
	code := bytes.Repeat([]byte{0xEB, 0xFC}, n/2)
	code[0], code[1] = 0x90, 0x06
	return code
}

// ForwardChain is `jmp +0` repeated, each jump landing on the next
// one, so everything is valid and the anchor closure is one path as
// long as the text; poisoned, the last jump lands on two invalid bytes
// instead and invalidity travels all the way back over branch edges.
func ForwardChain(n int, poisoned bool) []byte {
	code := bytes.Repeat([]byte{0xEB, 0x00}, n/2)
	if poisoned {
		code[len(code)-2], code[len(code)-1] = 0x06, 0x06
	}
	return code
}
