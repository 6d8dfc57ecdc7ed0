package enginetest_test

import (
	"testing"

	"e9patch/internal/emu"
	"e9patch/internal/emu/enginetest"
)

// TestEngineConformance runs the shared suite over every engine
// emu.EngineNames lists. "interp" runs too: comparing the interpreter against a
// second interpreter run proves the reference itself is deterministic.
func TestEngineConformance(t *testing.T) {
	for _, name := range emu.EngineNames() {
		t.Run(name, func(t *testing.T) { enginetest.Run(t, name) })
	}
}
