package emu

import "fmt"

// NewEngineByName instantiates a named engine: "interp", the
// decode-per-step interpreter, returns a nil Engine (assigning it to
// Machine.Engine selects the interpreter loop), and "ir" a fresh
// block-lifting engine (ir.go).
func NewEngineByName(name string) (Engine, error) {
	switch name {
	case "interp":
		return nil, nil
	case "ir":
		return newIREngine(), nil
	}
	return nil, fmt.Errorf("emu: unknown engine %q (registered: %v)", name, EngineNames())
}

// EngineNames returns the sorted engine names. Tooling —
// workload.NewMachine, cmd/e9bench -engine, the enginetest conformance
// suite — enumerates engines through it.
func EngineNames() []string { return []string{"interp", "ir"} }
