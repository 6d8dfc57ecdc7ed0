package enginetest

import (
	"fmt"
	"testing"

	"e9patch/internal/emu"
	"e9patch/internal/x86"
)

// loneProducer is one flag-writing instruction of a kind the lazy flag
// record keeps (add, sub, logic, shift and rotate, imul) or of none
// (eager), in the bytes that follow `mov rcx, a; mov rdx, b`.
type loneProducer struct {
	name string
	code []byte
}

// loneProducers are the producers testLoneJcc runs: at 64 and 32 bits
// for the arithmetic and logic kinds, every shift and rotate by a
// constant, a two-operand imul, and popfq for flags with no deferred
// producer.
func loneProducers() []loneProducer {
	ps := []loneProducer{
		{"add", []byte{0x48, 0x01, 0xD1}},          // add rcx, rdx
		{"add32", []byte{0x01, 0xD1}},              // add ecx, edx
		{"adc", []byte{0x48, 0x11, 0xD1}},          // adc rcx, rdx
		{"sub", []byte{0x48, 0x29, 0xD1}},          // sub rcx, rdx
		{"sub32", []byte{0x29, 0xD1}},              // sub ecx, edx
		{"sbb", []byte{0x48, 0x19, 0xD1}},          // sbb rcx, rdx
		{"cmp", []byte{0x48, 0x39, 0xD1}},          // cmp rcx, rdx
		{"and", []byte{0x48, 0x21, 0xD1}},          // and rcx, rdx
		{"xor32", []byte{0x31, 0xD1}},              // xor ecx, edx
		{"test", []byte{0x48, 0x85, 0xD1}},         // test rcx, rdx
		{"or-imm", []byte{0x48, 0x83, 0xC9, 0x01}}, // or rcx, 1
		{"imul", []byte{0x48, 0x0F, 0xAF, 0xCA}},   // imul rcx, rdx
	}
	for n, name := range []string{"rol", "ror", "rcl", "rcr", "shl", "shr", "sal", "sar"} {
		if name == "rcl" || name == "rcr" || name == "sal" {
			continue
		}
		for _, count := range []byte{1, 7, 63} {
			ps = append(ps, loneProducer{fmt.Sprintf("%s-%d", name, count), []byte{0x48, 0xC1, 0xC1 | byte(n)<<3, count}})
		}
	}
	// popfq of b: the flags are b's, with no producer behind them.
	return append(ps, loneProducer{"popfq", []byte{0x52, 0x9D}}) // push rdx; popfq
}

// loneValues are the operand pairs: zero, equal, carries and signed
// overflows at both widths, and, for popfq, each status flag alone and
// all of them.
var loneValues = [][2]uint64{
	{0, 0}, {5, 5}, {1, 2}, {2, 1}, {^uint64(0), 1}, {1 << 63, 1}, {1<<63 - 1, 1},
	{0x7FFF_FFFF, 1}, {0x8000_0000, 0xFFFF_FFFF}, {0xF0, 0x0F},
	{0, 0x001}, {0, 0x004}, {0, 0x010}, {0, 0x040}, {0, 0x080}, {0, 0x800}, {0, 0x8D5},
}

// loneJccProgram lays out, for each of the 16 conditions, `add r13,
// r13; mov rcx, a; mov rdx, b; <producer>; mov r9, rcx; jcc taken; add
// r13, 1; taken:` and ends in hlt. The mov between them keeps the
// producer and the jcc apart, so an engine that fuses a flag producer
// with its branch leaves this jcc alone, to read the flags the producer
// recorded.
func loneJccProgram(p loneProducer, a, b uint64) []byte {
	asm := x86.NewAsm(SiteBase)
	for cc := x86.Cond(0); cc < 16; cc++ {
		asm.AddRegReg64(x86.R13, x86.R13)
		asm.MovRegImm64(x86.RCX, a)
		asm.MovRegImm64(x86.RDX, b)
		asm.Raw(p.code...)
		asm.MovRegReg64(x86.R9, x86.RCX)
		taken := asm.NewLabel()
		asm.JccShort(cc, taken)
		asm.AddRegImm64(x86.R13, 1)
		asm.Bind(taken)
	}
	asm.Raw(0xF4) // hlt
	return asm.MustFinish()
}

// testLoneJcc runs every producer kind followed, not fused, by each of
// the 16 conditional branches over boundary operands: the branch must
// read the flags, and leave them, exactly as the interpreter does.
func testLoneJcc(t *testing.T, engine string) {
	for _, p := range loneProducers() {
		for _, v := range loneValues {
			text := loneJccProgram(p, v[0], v[1])
			var ms [2]*emu.Machine
			for i, eng := range []emu.Engine{nil, newEngine(t, engine)} {
				ms[i] = rawMachine(eng, SiteBase, text)
				if err := ms[i].Run(10_000); err != nil {
					t.Fatalf("%s %#x,%#x: %v", p.name, v[0], v[1], err)
				}
			}
			if !diffStates(t, p.name, engine, stateOf(ms[0]), stateOf(ms[1])) {
				t.Logf("%s: operands %#x, %#x", p.name, v[0], v[1])
			}
		}
	}
}
