package match

import (
	"testing"

	"e9patch/internal/x86"
)

func TestSelectClosuresAreShardable(t *testing.T) {
	pred := func(v *View) bool { return v.IsJcc() && v.Len < 5 }
	if !Shardable(Select(pred)) {
		t.Error("Select-derived selector not shardable")
	}
	// Two distinct predicates share Select's closure code.
	pred2 := func(v *View) bool { return v.MayWriteMem() && v.Inst().IsHeapWrite() }
	if !Shardable(Select(pred2)) {
		t.Error("second Select instance not shardable")
	}
}

func TestUnknownSelectorNotShardable(t *testing.T) {
	stateful := func(insts []x86.Loc) []int { return nil }
	if Shardable(stateful) {
		t.Error("unregistered selector reported shardable")
	}
	RegisterShardable(stateful)
	if !Shardable(stateful) {
		t.Error("registration did not take")
	}
}

func TestRegisterShardableNonFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-function")
		}
	}()
	RegisterShardable(42)
}
