package emu

import (
	"fmt"
	"sort"
)

// EngineFactory constructs a fresh engine instance. A factory may
// return nil: a nil Engine selects the built-in decode-per-step
// interpreter (Machine.Run's fallback loop).
type EngineFactory func() Engine

// engineFactories is the registry of named execution engines. Engine
// packages self-register from init (internal/emu/ir)
// so that tooling — workload.NewMachine, cmd/e9bench -engine, the
// enginetest conformance suite — can enumerate and instantiate every
// engine without emu importing them (which would cycle).
var engineFactories = map[string]EngineFactory{
	"interp": func() Engine { return nil },
}

// RegisterEngine adds a named engine factory. It is called from engine
// package init functions; duplicate names are a programming error.
func RegisterEngine(name string, f EngineFactory) {
	if _, dup := engineFactories[name]; dup {
		panic(fmt.Sprintf("emu: engine %q registered twice", name))
	}
	if f == nil {
		panic(fmt.Sprintf("emu: engine %q registered with nil factory", name))
	}
	engineFactories[name] = f
}

// NewEngineByName instantiates a registered engine. The returned Engine
// is nil (without error) for "interp": assigning it to Machine.Engine
// selects the interpreter loop.
func NewEngineByName(name string) (Engine, error) {
	f, ok := engineFactories[name]
	if !ok {
		return nil, fmt.Errorf("emu: unknown engine %q (registered: %v)", name, EngineNames())
	}
	return f(), nil
}

// EngineNames returns the sorted names of all registered engines. The
// conformance suite runs over exactly this list.
func EngineNames() []string {
	names := make([]string, 0, len(engineFactories))
	for n := range engineFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
