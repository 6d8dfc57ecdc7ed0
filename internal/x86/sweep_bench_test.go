package x86_test

import (
	"math/rand"
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/workload"
	"e9patch/internal/x86"
)

// sweepInputs are what the sweep benchmarks decode at every offset:
// seeded random bytes (the superset sweep's diet: a third of the
// offsets do not decode) and one generated profile's text (compiler-
// shaped code).
func sweepInputs(b *testing.B) []sweepInput {
	random := make([]byte, 128<<10)
	rand.New(rand.NewSource(1)).Read(random)
	prog, err := workload.BuildStatic(workload.AllProfiles()[0], 0.05)
	if err != nil {
		b.Fatal(err)
	}
	f, err := elf64.Parse(prog.ELF)
	if err != nil {
		b.Fatal(err)
	}
	text, _, err := f.Text()
	if err != nil {
		b.Fatal(err)
	}
	return []sweepInput{{"random", random}, {"profile", text}}
}

type sweepInput struct {
	name string
	code []byte
}

var sweepSink int

// BenchmarkShapeSweep is the length kernel at every offset; ns/op is
// nanoseconds per offset.
func BenchmarkShapeSweep(b *testing.B) {
	for _, in := range sweepInputs(b) {
		b.Run(in.name, func(b *testing.B) {
			for i, off := 0, 0; i < b.N; i++ {
				n, _, _ := x86.Shape(in.code[off:])
				sweepSink += n
				if off++; off == len(in.code) {
					off = 0
				}
			}
		})
	}
}

// BenchmarkDecodeIntoSweep is the full decode at every offset.
func BenchmarkDecodeIntoSweep(b *testing.B) {
	for _, in := range sweepInputs(b) {
		b.Run(in.name, func(b *testing.B) {
			var inst x86.Inst
			for i, off := 0, 0; i < b.N; i++ {
				_ = x86.DecodeInto(&inst, in.code[off:], 0x401000)
				sweepSink += inst.Len
				if off++; off == len(in.code) {
					off = 0
				}
			}
		})
	}
}
