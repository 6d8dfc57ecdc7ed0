package emu

// Exports for the external tests in ir_test.go, which need packages
// (workload, loader, the root package) that import emu.

// IREngine is the ir engine, whose Stats the tests read.
type IREngine = irEngine

// NewIREngine returns an empty ir engine.
func NewIREngine() *IREngine { return newIREngine() }

// IRStats is the ir engine's event counters.
type IRStats = irStats
