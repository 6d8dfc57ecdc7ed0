package match

import (
	"reflect"
	"sync"
)

// Shardable-selector registry. A selector over []x86.Loc can be
// evaluated shard-by-shard (each worker running it on a subslice and
// offsetting the returned indices) only if its decision for
// instruction i depends on insts[i] alone — no neighbour inspection,
// no internal state, no dependence on the slice's base index. That is
// a property of the selector's code, not of a particular closure
// instance, so the registry keys on the function's code pointer:
// registering one closure marks every closure sharing its compiled
// body (constructors like Select register each instance they return,
// which keys the registry per call site even under inlining).
// Unregistered selectors are simply evaluated sequentially, which is
// always safe.

var shardable sync.Map // code pointer (uintptr) -> struct{}

// RegisterShardable marks fn's implementation as safe for sharded
// evaluation. fn must be a function value.
func RegisterShardable(fn any) {
	shardable.Store(codePtr(fn), struct{}{})
}

// Shardable reports whether fn's implementation was registered as
// shard-safe.
func Shardable(fn any) bool {
	_, ok := shardable.Load(codePtr(fn))
	return ok
}

func codePtr(fn any) uintptr {
	v := reflect.ValueOf(fn)
	if v.Kind() != reflect.Func {
		panic("match: RegisterShardable wants a function value")
	}
	return v.Pointer()
}
